"""The names README.md and the package's docstrings point to exist in the package,
README's command lines parse, and the package exports exactly the pinned names."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

import qudisc
from qudisc import cli, harness, optics, spaces
from qudisc.errors import DomainError
from shared import never

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SRC = ROOT / "src" / "qudisc"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"

# The package-level public names, its submodules aside.  Adding or removing an
# export means editing this list, and a removed one is listed in REMOVED and in
# README.md's "Removed from the API".
EXPORTS = [
    "ContractError", "DimensionTable", "DomainError", "Interferometer", "McEstimate", "Priors",
    "RegimeResult", "VerificationReport", "average_success", "block_povm", "build_gh_bases",
    "detection_weights", "dimension_table", "discriminator_network", "empirical_mean_density",
    "haar_state", "jordan_angles", "mc_success", "mean_density_operators", "omega2_constraint",
    "optimal_average", "optimal_pure", "optimal_subspace", "overlap_identity_check",
    "prepare_state_network", "pure_success", "reck_decompose", "simulate_clicks",
    "success_curve_x", "symmetric_basis_2", "symmetric_projector", "total_povm", "verify_all",
]
# Removed public names: (name, the module that defined it).
REMOVED = [("MeasurementTriple", "povm"), ("Tolerances", "harness"), ("JordanPairSet", "jordan"),
           ("ClickStats", "optics"), ("OverlapIdentity", "harness"),
           ("DegeneratePriorsError", "errors"), ("SHOT_BLOCK", "optics"),
           ("pair_labels", "spaces"), ("triple_labels", "spaces"), ("exchange_ac", "spaces"),
           ("product_ket", "spaces"), ("gather_blocks", "spaces"),
           ("two_mode_unitary", "optics")]


def _resolves(target, dotted):
    """Whether each part of `dotted` is an attribute of the one before it, from
    `target` on; a dataclass field counts as an attribute of its class."""
    for part in dotted.split("."):
        if hasattr(target, part):
            target = getattr(target, part)
        elif part in getattr(target, "__dataclass_fields__", ()):
            target = None  # a field's value is per instance: nothing to follow past it
        else:
            return False
    return True


def _module(name):
    return importlib.import_module(f"qudisc.{name}")


def _in_a_module(dotted):
    """Whether `dotted`, with or without the leading `qudisc.`, is module.attribute..."""
    module, _, rest = dotted.removeprefix("qudisc.").partition(".")
    return module in MODULES and bool(rest) and _resolves(_module(module), rest)


def _readme_spans():
    """Backticked spans of README.md outside fenced code and outside the
    "Removed from the API" paragraph."""
    text = re.sub(r"```.*?```", "", README, flags=re.S)
    return [span for paragraph in text.split("\n\n")
            if not paragraph.startswith("Removed from the API")
            for span in re.findall(r"`([^`]+)`", paragraph)]


def _readme_references():
    """The `module.name...` spans of README.md, with or without `qudisc.`."""
    pattern = re.compile(rf"^((?:qudisc\.)?(?:{'|'.join(MODULES)})\.{DOTTED})")
    return [match.group(1) for span in _readme_spans() if (match := pattern.match(span))]


def _readme_commands():
    """The argument lists of the `qudisc ...` lines in README.md's fenced code."""
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```.*?```", README, flags=re.S)
            for line in block.splitlines() if line.startswith("qudisc ")]


def _readme_flags():
    """The --flags of README.md's command lines and of `_readme_spans()`."""
    spans = [*_readme_spans(), *map(" ".join, _readme_commands())]
    return {flag for span in spans for flag in re.findall(r"(?<!\S)--[a-z][\w-]*", span)}


def _docstring_roles():
    """(module name, target) of every :func:, :attr: and :class: role in the sources."""
    return [(name, target) for name in MODULES
            for target in re.findall(rf":(?:func|attr|class):`~?({DOTTED})`",
                                     (SRC / f"{name}.py").read_text())]


def test_readme_names_resolve_in_their_modules():
    references = _readme_references()
    assert len(references) >= 25  # the pattern still finds the README's references
    assert [ref for ref in references if not _in_a_module(ref)] == []


def test_docstring_roles_resolve_in_their_module_or_the_package():
    roles = _docstring_roles()
    assert len(roles) >= 30
    stale = [(module, target) for module, target in roles
             if not (_resolves(_module(module), target) or _in_a_module(target))]
    assert stale == []


def test_readme_states_the_nmax_range_that_verify_all_admits(monkeypatch):
    stated = re.findall(r"`verify --n-max` accepts (\d+)\.\.(\d+)", README)
    assert len(stated) == 1
    low, high = map(int, stated[0])
    ran = []  # the check runners record their calls instead of building operators
    monkeypatch.setattr(harness, "_kind_results", lambda: ran.append("kinds"))
    monkeypatch.setattr(harness, "_checks_for_n", lambda n, report, kind_results: ran.append(n))
    monkeypatch.setattr(harness, "_global_checks", lambda n_max, report: ran.append("g"))
    for outside in (low - 1, high + 1):
        with pytest.raises(DomainError):
            harness.verify_all(outside)
    assert ran == []
    harness.verify_all(low)
    harness.verify_all(high)
    assert ran == ["kinds", *range(2, low + 1), "g", "kinds", *range(2, high + 1), "g"]


def _stated_power(pattern):
    """The one power of ten, such as 10⁹, that README states where `pattern` matches."""
    stated = re.findall(pattern, README)
    assert len(stated) == 1
    return 10 ** int(stated[0].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))


def test_readme_states_the_shot_trial_and_step_limits(monkeypatch, capsys):
    sup = "([⁰¹²³⁴⁵⁶⁷⁸⁹]+)"
    shots = _stated_power(rf"`simulate --shots` accepts 1\.\.10{sup} \(`optics\.MAX_SHOTS`\)")
    trials = _stated_power(rf"accept at most 10{sup}\s+trials \(`harness\.MAX_TRIALS`\)")
    steps = _stated_power(rf"`scan --steps` accepts at most 10{sup} grid points "
                          rf"\(`cli\.MAX_SCAN_STEPS`")
    assert (shots, trials, steps) == (optics.MAX_SHOTS, harness.MAX_TRIALS, cli.MAX_SCAN_STEPS)
    # One past each limit is refused before any draw or row; nothing runs at a limit.
    monkeypatch.setattr(optics, "seeded_stream", never("a draw"))
    for shot_count in (0, shots + 1):
        argv = ["simulate", "--eta1", "0.5", "--x", "2", "--shots", str(shot_count)]
        assert cli.main(argv) == 2
    with pytest.raises(DomainError, match="trials must not exceed"):
        harness.mc_success(2, 0.5, harness.Priors(0.3), trials + 1, 0)
    with pytest.raises(DomainError, match="trials must not exceed"):
        harness.empirical_mean_density(2, 1, trials + 1, 0)
    assert cli.main(["scan", "--n", "2", "--eta1", "0.5", "--steps", str(steps + 1)]) == 2
    assert capsys.readouterr().out == ""


def _largest_full_mesh(nbytes):
    """The most modes N whose full mesh, N(N-1)/2 layers, is told nbytes(N, layers)
    within spaces.MAX_BUILD_BYTES."""
    n = 1
    while nbytes(n + 1, n * (n + 1) // 2) <= spaces.MAX_BUILD_BYTES:
        n += 1
    return n


def test_readme_states_the_full_mesh_limits_of_the_byte_constants():
    # The bytes each mesh call tells check_build_bytes.  to_text writes a line per
    # layer and at most one per mode; its longest, "BS 4096 4095" and three
    # 24-character %.17g values, has 88 characters, so from_text's widest piece
    # has at most _CHUNK_CHARS + 88.
    told = {
        "reck_decompose": lambda n, layers: optics._SYNTHESIS_BYTES * n * n,
        "unitary()": lambda n, layers:
            optics._AMPLITUDE_BYTES * n * n + optics._LAYER_BYTES * layers,
        "apply": lambda n, layers: optics._AMPLITUDE_BYTES * n + optics._LAYER_BYTES * layers,
        "to_text": lambda n, layers: optics._LINE_BYTES * (layers + n),
        "from_text": lambda n, layers: optics._PARSED_LINE_BYTES * (layers + n)
            + optics._CHAR_BYTES * (optics._CHUNK_CHARS + 88),
    }
    limits = {call: _largest_full_mesh(nbytes) for call, nbytes in told.items()}
    assert limits["to_text"] <= limits["from_text"] <= optics.MAX_MODES
    unstated = [(call, n) for call, n in limits.items()
                if not re.search(rf"\b{n}(?: modes)? by\s+`{re.escape(call)}`", README)]
    assert unstated == []


def test_readme_command_lines_parse_and_name_only_subcommand_flags():
    commands = _readme_commands()
    assert len(commands) >= 7
    unparsed = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:  # argparse's refusal, its message on stderr
            unparsed.append(argv)
    assert unparsed == []
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices.values()
    known = {flag for sub in subcommands for action in sub._actions
             for flag in action.option_strings}
    flags = _readme_flags()
    assert {"--n-max", "--json", "--shots", "--seed"} <= flags
    assert sorted(flags - known) == []


def test_the_package_exports_exactly_the_pinned_names():
    # The exports resolve on first use (PEP 562), so vars(qudisc) holds only the loaded ones.
    assert qudisc.__all__ == EXPORTS and dir(qudisc) == EXPORTS
    for name in EXPORTS:
        value = getattr(qudisc, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace = {}
    exec("from qudisc import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == EXPORTS
    for name, module in REMOVED:
        assert not hasattr(qudisc, name) and not hasattr(_module(module), name)
        assert f"`{module}.{name}`" in README
