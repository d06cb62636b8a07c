"""Spans around calls into qudisc's layers, kept in memory and saved at the end.

A layer is one module of the package (spaces, jordan, povm, optics, harness,
cli).  `Tracer.install` wraps every public function of each layer module and
every public method of the classes it defines, then rebinds the wrapper
under every name that held the original anywhere in the package, so calls
made through `from .jordan import build_gh_bases` in another module are
traced too.  It also counts `numpy.random.Philox` constructions.

A span is (name, start, end, parent); spans live in flat arrays until
`save` writes them to one `.npz` file, and `per_layer_metrics` reads such
files back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("spaces", "jordan", "povm", "optics", "harness", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.philox_streams = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of every layer module of a loaded qudisc."""
        package = [m for k, m in sys.modules.items() if k == "qudisc" or k.startswith("qudisc.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"qudisc.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for module in package:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(module, attr, wrapped[id(obj)])

        real_philox = np.random.Philox

        def counted_philox(*args, **kwargs):
            self.philox_streams += 1
            return real_philox(*args, **kwargs)

        self._set(np.random, "Philox", counted_philox)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            philox_streams=self.philox_streams,
        )


# Metric name -> span names it sums.  `.calls` counts spans, `.s` sums
# their durations (none of these functions nests a call to itself).
NAMED_SPANS = {
    "spaces.constructive_dimension_table.s": ["spaces.constructive_dimension_table"],
    "spaces.mean_density_operators.calls": ["spaces.mean_density_operators"],
    "jordan.build_gh_bases.calls": ["jordan.build_gh_bases"],
    "jordan.build_gh_bases.s": ["jordan.build_gh_bases"],
    "povm.total_povm.calls": ["povm.total_povm"],
    "povm.total_povm.s": ["povm.total_povm"],
    "optics.simulate_discriminator.s": ["optics.simulate_discriminator"],
    "optics.simulate_clicks.s": ["optics.simulate_clicks"],
    "optics.reck_decompose.s": ["optics.reck_decompose"],
    "optics.prepare_state_network.s": ["optics.prepare_state_network"],
    "optics.unitary.calls": ["optics.Interferometer.unitary"],
    "optics.unitary.s": ["optics.Interferometer.unitary"],
    "optics.text_roundtrip.s": ["optics.Interferometer.to_text", "optics.Interferometer.from_text"],
    "harness.verify_all.s": ["harness.verify_all"],
    "harness.mc_success.s": ["harness.mc_success"],
    "harness.empirical_mean_density.s": ["harness.empirical_mean_density"],
    "harness.haar_state.calls": ["harness.haar_state"],
}


def per_layer_metrics(paths: list[str]) -> dict[str, float]:
    """Self time per layer, named span totals and the Philox count, summed over saved traces."""
    totals: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    totals.update({metric: 0 if metric.endswith(".calls") else 0.0 for metric in NAMED_SPANS})
    totals["rng.philox_streams"] = 0
    for path in paths:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            name_ids, parents = data["name_ids"], data["parents"]
            durations = data["ends"] - data["starts"]
            totals["rng.philox_streams"] += int(data["philox_streams"])
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=len(durations))
        self_time = np.bincount(name_ids, weights=durations - child, minlength=len(names))
        for name_id, name in enumerate(names):
            totals[f"{name.split('.')[0]}.self_s"] += float(self_time[name_id])
        for metric, span_names in NAMED_SPANS.items():
            for span in span_names:
                if span not in names:
                    raise KeyError(f"no span {span} was wrapped")
                target = names.index(span)
                if metric.endswith(".calls"):
                    totals[metric] += int(np.count_nonzero(name_ids == target))
                else:
                    totals[metric] += float(durations[name_ids == target].sum())
    return totals
