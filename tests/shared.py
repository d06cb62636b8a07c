"""Helpers that more than one test module uses."""

import tracemalloc

import numpy as np
import pytest


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


def owner(row):
    """The test a table row was moved from: its id less any #k suffix and -case."""
    return row.id.partition("#")[0].partition("-")[0]


def node_tests(table, run, names):
    """Tests under `names`, tests moved whole into `table`, that keep their node
    ids: each runs run(monkeypatch, *row) over its rows, the rows with id
    name-case as the case `case` of a parametrized test.  The table's own test
    leaves these rows out, so each row runs once."""
    cases = {}
    for row in table:
        if owner(row) in names:
            case = row.id.partition("#")[0].partition("-")[2]
            cases.setdefault(owner(row), {}).setdefault(case, []).append(row.values)
    assert sorted(cases) == sorted(names), "a name with no rows"

    def test_of(by_case):
        def test(monkeypatch, case):
            for values in by_case[case]:
                run(monkeypatch, *values)
        if list(by_case) == [""]:
            return lambda monkeypatch: test(monkeypatch, "")
        return pytest.mark.parametrize("case", list(by_case))(test)
    return {name: test_of(by_case) for name, by_case in cases.items()}
