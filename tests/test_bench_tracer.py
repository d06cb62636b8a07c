"""The benchmark's tracer still finds every function its named spans read.

A public function of qudisc that `bench/run.py --trace 1` reports on, once
removed or renamed, fails here instead of in the next traced benchmark run.
"""

import importlib.util
from pathlib import Path

# The tracer wraps every layer module, so all must be loaded; `import qudisc.cli` loads only cli.
from qudisc import cli, harness, jordan, optics, povm, spaces  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_span():
    tracer_module = _load_tracer()
    original = povm.total_povm
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert povm.total_povm is not original
        wrapped = set(tracer.names)
    finally:
        tracer.uninstall()
    assert povm.total_povm is original
    spans = {span for names in tracer_module.NAMED_SPANS.values() for span in names}
    assert spans <= wrapped, f"spans no function provides: {sorted(spans - wrapped)}"
