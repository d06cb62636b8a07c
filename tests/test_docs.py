"""The names README.md and the package's docstrings point to exist in the package,
and the package exports exactly the pinned names."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import qudisc
from qudisc import harness
from qudisc.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent
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
    "success_curve_x", "symmetric_basis_2", "symmetric_projector", "total_povm",
    "two_mode_unitary", "verify_all",
]
# Removed public names: (name, the module that defined it).
REMOVED = [("MeasurementTriple", "povm"), ("Tolerances", "harness"), ("JordanPairSet", "jordan"),
           ("ClickStats", "optics"), ("OverlapIdentity", "harness"),
           ("DegeneratePriorsError", "errors")]


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


def _readme_references():
    """Backticked `module.name...` spans of README.md, with or without `qudisc.`,
    outside fenced code and outside the "Removed from the API" paragraph."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    pattern = re.compile(rf"^((?:qudisc\.)?(?:{'|'.join(MODULES)})\.{DOTTED})")
    return [match.group(1)
            for paragraph in text.split("\n\n") if not paragraph.startswith("Removed from the API")
            for span in re.findall(r"`([^`]+)`", paragraph)
            if (match := pattern.match(span))]


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
    stated = re.findall(r"`verify --n-max` accepts (\d+)\.\.(\d+)", (ROOT / "README.md").read_text())
    assert len(stated) == 1
    low, high = map(int, stated[0])
    ran = []  # the check runners record their calls instead of building operators
    monkeypatch.setattr(harness, "_checks_for_n", lambda n, tol, report: ran.append(n))
    monkeypatch.setattr(harness, "_global_checks", lambda n_max, tol, report: ran.append("g"))
    for outside in (low - 1, high + 1):
        with pytest.raises(DomainError):
            harness.verify_all(outside)
    assert ran == []
    harness.verify_all(low)
    harness.verify_all(high)
    assert ran == [*range(2, low + 1), "g", *range(2, high + 1), "g"]


def test_the_package_exports_exactly_the_pinned_names():
    names = sorted(name for name, value in vars(qudisc).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == EXPORTS
    readme = (ROOT / "README.md").read_text()
    for name, module in REMOVED:
        assert not hasattr(qudisc, name) and not hasattr(_module(module), name)
        assert f"`{module}.{name}`" in readme
