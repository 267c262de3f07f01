"""Deterministic random streams.

Every stochastic routine in the package takes either an explicit
``numpy.random.Generator`` or a 64-bit seed from which it derives one.  Streams
are built from the counter-based Philox bit generator keyed through
``numpy.random.SeedSequence`` spawn keys, so a (master seed, index path) pair
always yields the same stream regardless of how work is split across worker
processes.  This is what makes simulated tables byte-identical for any worker
count.

Index paths start with a namespace constant (one per subsystem) followed by
free integers such as a replication index.
"""

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, before any worker forks

from ._errors import check_integer

# Namespace constants; never renumber, streams are part of the output contract.
NS_COVER = 1
NS_NULL = 3
NS_POWER = 4
NS_LIMIT = 5
NS_TEST = 6


def stream(seed, *path):
    """Return a Generator for ``(seed, *path)``.

    Parameters
    ----------
    seed : int
        Master seed (64-bit, non-negative).
    *path : int
        Stream coordinates, each an integer >= 0, e.g.
        ``(NS_NULL, replication, substream)``.

    Returns
    -------
    numpy.random.Generator
    """
    check_integer(seed, 0, "seed")
    for p in path:
        check_integer(p, 0, "stream index")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed_or_rng):
    """Coerce an int seed or a Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(seed_or_rng)
