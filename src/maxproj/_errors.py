"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors (bad options, InputError)
exit 1, DataError exits 2, NumericalError exits 3.
"""


class InputError(ValueError):
    """Invalid argument or precondition violation."""


class DataError(InputError):
    """Malformed or unusable input data (files, rows, schemas)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its tolerance or to converge."""
