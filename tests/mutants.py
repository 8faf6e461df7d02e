"""A mutation audit of the package: change one operator or constant in one
module, run tier-1, and list the changes that no test notices.

Each mutant is one of:

* a comparison flipped (``<`` and ``>=``, ``>`` and ``<=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
* ``+`` and ``-`` swapped, in an expression or an augmented assignment;
* ``and`` and ``or`` swapped;
* 1 added to an int literal.

Type annotations, docstrings and f-strings are skipped. Only the mutated
node's source is replaced; every line before and after it keeps its text.
The mutants run one at a time, in a temporary copy of the repository, each
under ``python -m pytest -q -x``. Tier-1 runs once first on the unmutated
copy, and each mutant is given three times that run's wall time, so the
timeout suits the machine; a timeout counts as killed.
Every mutant that passes is printed as ``file:line: before -> after``.

Run from the repository root; it is not part of tier-1 (pytest does not
collect it), and a surviving mutant costs a whole tier-1 run::

    python tests/mutants.py --module metrics --sample 20 --seed 1
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "sentimatch")

_FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


def _skipped(tree: ast.Module) -> set[int]:
    """The ids of every node inside an annotation, a docstring or an f-string."""
    roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                roots.append(body[0])
    return {id(inner) for root in roots for inner in ast.walk(root)}


def _mutations(node: ast.AST) -> list[ast.AST]:
    """Each mutated copy of one node, as a new node of the same extent."""
    def copy(**changes):
        clone = type(node)(**{name: getattr(node, name) for name in node._fields})
        for name, value in changes.items():
            setattr(clone, name, value)
        return clone

    if isinstance(node, ast.Compare):
        return [
            copy(ops=[*node.ops[:i], _FLIPPED[type(op)](), *node.ops[i + 1:]])
            for i, op in enumerate(node.ops)
        ]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
        return [copy(op=_SWAPPED[type(node.op)]())]
    if isinstance(node, ast.BoolOp):
        return [copy(op=_SWAPPED[type(node.op)]())]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [copy(value=node.value + 1)]
    return []


class Mutant:
    def __init__(self, module: Path, source: bytes, node: ast.AST, mutated: ast.AST):
        lines = source.splitlines(keepends=True)
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line))
        # ast offsets are UTF-8 byte columns within a line
        self.start = starts[node.lineno - 1] + node.col_offset
        self.end = starts[node.end_lineno - 1] + node.end_col_offset
        self.module, self.line = module, node.lineno
        self.before = source[self.start:self.end].decode("utf-8")
        self.after = ast.unparse(mutated)
        if isinstance(node, ast.expr) and not isinstance(node, ast.Constant):
            self.after = f"({self.after})"  # the same grouping, whatever surrounds it
        self.text = source[:self.start] + self.after.encode("utf-8") + source[self.end:]

    def __str__(self) -> str:
        return f"{self.module}:{self.line}: {' '.join(self.before.split())} -> {self.after}"


def mutants(module: Path) -> list[Mutant]:
    """Every mutant of one module of the package, in source order."""
    source = (ROOT / module).read_bytes()
    tree = ast.parse(source)
    skipped = _skipped(tree)
    found = [
        Mutant(module, source, node, mutated)
        for node in ast.walk(tree)
        if id(node) not in skipped
        for mutated in _mutations(node)
    ]
    found.sort(key=lambda mutant: (mutant.start, mutant.end, mutant.after))
    original = ast.dump(tree)
    for mutant in found:  # each must parse, and to a different program
        assert ast.dump(ast.parse(mutant.text)) != original, mutant
    return found


TIMEOUT_FACTOR = 3


def run_tests(copy: Path, timeout: float | None = None) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` for tier-1 in the copy."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    try:
        result = subprocess.run(
            command, cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if result.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", help="a module of the package, such as metrics (repeatable; default all)")
    parser.add_argument("--sample", type=int, help="run only N mutants of each module, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    names = args.module or sorted(path.stem for path in (ROOT / PACKAGE).glob("*.py"))
    chosen: list[Mutant] = []
    for name in names:
        found = mutants(PACKAGE / f"{name}.py")
        if args.sample is not None and args.sample < len(found):
            found = sorted(random.Random(f"{args.seed}:{name}").sample(found, args.sample), key=lambda m: m.start)
        chosen += found
    ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_work")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=ignore)
        started = time.monotonic()
        if run_tests(copy) != "passed":
            print("tier-1 does not pass on the unmutated copy", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - started)
        print(f"tier-1 on the unmutated copy: {timeout / TIMEOUT_FACTOR:.0f}s; {timeout:.0f}s per mutant", flush=True)
        survivors = 0
        for number, mutant in enumerate(chosen, start=1):
            target = copy / mutant.module
            started = time.monotonic()
            target.write_bytes(mutant.text)
            try:
                outcome = run_tests(copy, timeout)
            finally:
                shutil.copyfile(ROOT / mutant.module, target)
            survivors += outcome == "passed"
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"[{number}/{len(chosen)}] {verdict} {time.monotonic() - started:.0f}s {mutant}", flush=True)
    print(f"{len(chosen)} mutants, {len(chosen) - survivors} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
