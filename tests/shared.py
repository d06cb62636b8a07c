"""Helpers that more than one test module uses."""

import tracemalloc

import numpy as np

from qudisc import kinds, spaces


class PeakMemory:
    """A block run under tracemalloc: `bytes` is then its peak traced allocation."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def never(what):
    """A stand-in for a call that must not happen: it fails the test with `what`."""
    def call(*args, **kwargs):
        raise AssertionError(what)
    return call


def state_stacks(n, pairs, seed):
    """Two (pairs, n) stacks of unit states, drawn from one Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=(2, pairs, n)) + 1j * rng.normal(size=(2, pairs, n))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def constructive_table(n):
    """spaces.constructive_dimension_table at n, on the ranks of the kind table as it is."""
    ranks = [spaces.kind_ranks(kind) for kind in kinds.kind_table()]
    return spaces.constructive_dimension_table(n, ranks)
