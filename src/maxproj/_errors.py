"""Exception types shared across the package, and the one check of every count.

The CLI maps these onto exit codes: usage errors (bad options, InputError)
exit 1, DataError exits 2, NumericalError exits 3.  Every count (dimension,
power, order, sample, cover or replication size, worker count, seed) is
checked by :func:`check_integer`, with one message format, and every worker
count is capped by :func:`usable_workers`.
"""

import numbers
import os


class InputError(ValueError):
    """Invalid argument or precondition violation."""


class DataError(InputError):
    """Malformed or unusable input data (files, rows, schemas)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its tolerance or to converge."""


def check_integer(value, minimum, name):
    """Raise :class:`InputError` unless ``value`` is an int or numpy integer >= ``minimum``."""
    # a plain int skips the abstract-class isinstance, which costs ten times as much
    integer = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and value >= minimum):
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_dimension(d):
    """Raise :class:`InputError` unless the sphere dimension d is an integer >= 2."""
    check_integer(d, 2, "dimension")


def usable_workers(workers):
    """``workers``, checked as a count >= 1, capped at the CPUs this process may run on."""
    check_integer(workers, 1, "workers")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)
