"""Mutation probe: which one-site faults do verify_all(4) and the tier-1 suite catch?

    python3 tools/mutate.py

Copies the checkout into a temporary directory and mutates only the copy, one
site at a time: a numeric constant times 1.001 (+ 1 for an int), + <-> -,
* <-> /, < <-> <= or > <-> >=.  It draws SAMPLE sites of each module of SAMPLED
with random.Random(0) and takes every site of FULL.  Each mutant runs
verify_all(4) in a fresh interpreter, killed if a check fails or the call
raises, and the tier-1 suite, which names each failing test; a run over TIMEOUT
seconds counts as killed and is listed.  Prints one JSON line per mutant, then
the kills per module, each verify_all survivor and each test that alone kills
some mutant.  Stdlib only; about 16 s a mutant on 2 vCPUs, under an hour in all.
"""

import ast
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from collections import defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# What the suite reads: tests/test_docs.py reads README, tests/test_mutate.py this file.
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml", "README.md")
SAMPLED = ("kinds", "scalars", "spaces", "povm", "optics", "harness")
FULL = ("jordan",)
SAMPLE, TIMEOUT = 30, 300
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
VERIFY = "import sys; from qudisc.harness import verify_all; sys.exit(not verify_all(4).passed)"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--tb=no", "-rfE", "-p", "no:cacheprovider"]


# One mutable token: its line, its character columns there, and its replacement.
Site = namedtuple("Site", "line start end old new")


def sites(source):
    """Every mutable site of a module's source, in source order."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NUMBER)]
    lines = source.splitlines()

    def start(line, col):  # ast columns count UTF-8 bytes, tokenize's count characters
        return line, len(lines[line - 1].encode()[:col].decode())

    def between(left, right, ops):  # the operator token between two operands
        lo, hi = start(left.end_lineno, left.end_col_offset), start(right.lineno, right.col_offset)
        return next(t for t in tokens if lo <= t.start and t.end <= hi and t.string in ops)

    tree = ast.parse(source)
    # The tokenizer reads an f-string as one token, so its expressions are left alone.
    quoted = {id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr) for n in ast.walk(s)}
    found = []
    for node in (n for n in ast.walk(tree) if id(n) not in quoted):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = node.value + 1 if type(node.value) is int else node.value * 1.001
            if new != node.value:  # 0.0 has no such mutant
                at = start(node.lineno, node.col_offset)
                found.append((next(t for t in tokens if t.start == at), repr(new)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (
                node.target, node.value)
            if type(node.op) in (ast.Add, ast.Sub, ast.Mult, ast.Div):
                token = between(left, right, ("+", "-", "*", "/", "+=", "-=", "*=", "/="))
                found.append((token, SWAPS[token.string[0]] + token.string[1:]))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in (ast.Lt, ast.LtE, ast.Gt, ast.GtE):
                    token = between(left, right, ("<", "<=", ">", ">="))
                    found.append((token, SWAPS[token.string]))
    return sorted(Site(*t.start, t.end[1], t.string, new) for t, new in found)


def mutate(source, site):
    """The source with the one site replaced."""
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    assert text[site.start:site.end] == site.old, site
    lines[site.line - 1] = text[:site.start] + site.new + text[site.end:]
    return "".join(lines)


def copy_checkout(dest):
    """Copy what the suite reads from the checkout, without bytecode or results."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache", "out"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def mutants(copy):
    """Write each chosen mutant into the copy in turn, yielding (module, site)
    while it stands; each module is written back once its sites are done."""
    rng = random.Random(0)
    for module in SAMPLED + FULL:
        path = copy / "src" / "qudisc" / f"{module}.py"
        original = path.read_text()
        found = sites(original)
        chosen = found if module in FULL else sorted(rng.sample(found, min(SAMPLE, len(found))))
        try:
            for site in chosen:
                path.write_text(mutate(original, site))
                yield module, site
        finally:
            path.write_text(original)


def run(cmd, cwd):
    """(killed, stdout) of cmd in cwd; killed is "timeout" if it ran over TIMEOUT."""
    # No bytecode: a mutant as long as the original, written within the same
    # second, would otherwise run the original's cached code.
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=TIMEOUT)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest's own children too
        return "timeout", proc.communicate()[0]
    return proc.returncode != 0, out


def probe(copy):
    """The verify_all(4) and tier-1 verdicts on the copy as it stands."""
    verdict, _ = run([sys.executable, "-c", VERIFY], copy)
    tier1, out = run(TIER1, copy)
    return {"verify_all": verdict, "tier1": tier1,
            "failed": re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)}


def main():
    with tempfile.TemporaryDirectory(prefix="qudisc-mutate-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        base = probe(copy)
        if base["verify_all"] or base["tier1"]:
            sys.exit(f"the unmutated checkout fails: {json.dumps(base)}")
        results = []
        for module, site in mutants(copy):
            results.append({"module": module, "line": site.line, "col": site.start,
                            "mutation": f"{site.old} -> {site.new}", **probe(copy)})
            print(json.dumps(results[-1]), flush=True)
    print("\n| module | mutants | verify_all(4) kills | tier-1 kills |\n| --- | --- | --- | --- |")
    for module in SAMPLED + FULL:
        rows = [r for r in results if r["module"] == module]
        print(f"| `{module}` | {len(rows)} | {sum(bool(r['verify_all']) for r in rows)} "
              f"| {sum(bool(r['tier1']) for r in rows)} |")
    sole = defaultdict(list)
    print("\nverify_all(4) survivors, and runs over the time limit:")
    for r in results:
        where = f"src/qudisc/{r['module']}.py:{r['line']}:{r['col']} {r['mutation']}"
        if not r["verify_all"]:
            print(f"  {where}: {len(r['failed'])} tier-1 failures")
        if "timeout" in (r["verify_all"], r["tier1"]):
            print(f"  {where}: timeout")
        killers = {node.split("[")[0] for node in r["failed"]}  # parametrized cases as one
        if len(killers) == 1:
            sole[killers.pop()].append(where)
    print("\ntests that alone kill some mutant:")
    for test, where in sorted(sole.items()):
        print(f"  {test}: {'; '.join(where)}")


if __name__ == "__main__":
    main()
