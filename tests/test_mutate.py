"""The mutation probe, tools/mutate.py, changes one site of a copy and nothing else.
It runs neither the suite nor verify_all here: a full probe takes about an hour."""

import ast
import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)

SOURCE = '''"""x + 1 in a docstring is no site."""
def f(x, y=2.5):
    y -= 1
    return f"{x - 1}", 3 * x + y if x < y else x / 4
'''


def _digest(root):
    return hashlib.sha256(b"".join(str(p).encode() + p.read_bytes() for p in sorted(root.rglob("*"))
                                   if p.is_file() and "__pycache__" not in p.parts)).hexdigest()


def test_each_site_of_a_small_source_mutates_its_own_line_only():
    found = mutate.sites(SOURCE)
    assert [(s.line, s.old, s.new) for s in found] == [
        (2, "2.5", repr(2.5 * 1.001)), (3, "-=", "+="), (3, "1", "2"), (4, "3", "4"), (4, "*", "/"),
        (4, "+", "-"), (4, "<", "<="), (4, "/", "*"), (4, "4", "5")]
    for site in found:
        mutant = mutate.mutate(SOURCE, site).splitlines()
        ast.parse("\n".join(mutant))
        assert [i for i, (a, b) in enumerate(zip(SOURCE.splitlines(), mutant), 1) if a != b] == [
            site.line] and len(mutant) == len(SOURCE.splitlines())


def test_a_mutation_step_changes_the_copy_and_leaves_the_checkout(tmp_path):
    before = _digest(ROOT / "src")
    mutate.copy_checkout(tmp_path)
    steps = mutate.mutants(tmp_path)
    module, site = next(steps)
    copied, original = (root / "src" / "qudisc" / f"{module}.py" for root in (tmp_path, ROOT))
    assert copied.read_text() == mutate.mutate(original.read_text(), site) != original.read_text()
    assert _digest(ROOT / "src") == before
    steps.close()  # the module is written back
    assert copied.read_text() == original.read_text()
