"""Mutation sweep of one module against tier-1, standard library only.

Usage, from the root of a checkout:

    python3 tools/mutate.py --module src/d2dsim/stack.py [--sample N] [--seed S] \\
        [--shard K/N]

Each mutant is the module with one change, made with ``ast``:

- ``compare``: one comparison operator swapped, ``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``is``/``is not`` or ``in``/``not in``;
- ``arith``: one ``+`` made ``-`` or ``-`` made ``+``, in an expression or
  an augmented assignment;
- ``int+1``: one integer constant plus 1;
- ``pass``: one statement replaced by ``pass``.

Docstrings are never mutated, nor are ``def``, ``class`` and ``import``
statements, whose removal only leaves a name undefined.  Mutants are listed
in source order; ``--sample N`` runs N of them drawn with
``random.Random(seed)``, and the seed also fixes Hypothesis's draws, so a
sweep repeats.  ``--shard K/N`` runs only the mutants whose index in that
source-ordered list (after sampling) is K modulo N, so N sweeps started
at once with K = 0 .. N-1, each in its own temporary copy, share the work
of one between N cores.

The checkout, without ``.git``, ``perfbench/out`` and caches, is copied to a
temporary directory, which is removed at the end, on error, on Ctrl-C and
on SIGTERM.  There, the module is first replaced by its ``ast.unparse``
form, which every mutant shares, and tier-1 must pass on it; otherwise the
sweep stops.  Each mutant then runs the module's own test file
(``tests/test_<name>.py``), which kills most mutants in seconds, and, if
that passes, all of tier-1, both with ``-x``.  A run that fails, that
takes more than twice its baseline time plus 30 s, or that needs more than
2 GiB of address space kills the mutant; every other mutant survives and
is printed as ``file:line kind (change): source line``.  Exit status: 0
when none survives, 1 when some do, 2 when the baseline fails.

A killed mutant costs from a few seconds to a full tier-1 run, a survivor
a full one (35 to 60 s on a shared 2-core host), so a sweep takes tens of
minutes: 19 for the 212 mutants of ``stack.py`` with 3 survivors, 43 for
its 234 with 36 survivors before they were dealt with.  Run it in the
background.  It is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}
_SIGNS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_KEPT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                    ast.Import, ast.ImportFrom, ast.Pass)
_SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
_MEMORY_LIMIT = 2 << 30  # bytes of address space per test run; a runaway mutant fails

# ``index`` is the node's place in ``ast.walk`` order, ``op`` the place of the
# operator in a chained comparison (else 0)
Mutant = namedtuple("Mutant", "line kind change index op")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the expression statements that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            found.add(id(body[0]))
    return found


def _symbol(op: ast.AST) -> str:
    return ast.unparse(ast.Compare(ast.Name("a"), [op], [ast.Name("b")]))[2:-2]


def mutants(source: str) -> list[Mutant]:
    """Every mutant of ``source``, in source order."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for op_index, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    change = f"{_symbol(op)} -> {_symbol(_SWAPS[type(op)]())}"
                    found.append(Mutant(node.lineno, "compare", change, index, op_index))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SIGNS:
            change = "+ -> -" if isinstance(node.op, ast.Add) else "- -> +"
            found.append(Mutant(node.lineno, "arith", change, index, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            change = f"{node.value} -> {node.value + 1}"
            found.append(Mutant(node.lineno, "int+1", change, index, 0))
        if (isinstance(node, ast.stmt) and not isinstance(node, _KEPT_STATEMENTS)
                and id(node) not in docstrings):
            found.append(Mutant(node.lineno, "pass", "statement -> pass", index, 0))
    order = {kind: rank for rank, kind in enumerate(("pass", "compare", "arith", "int+1"))}
    return sorted(found, key=lambda m: (m.line, order[m.kind], m.index, m.op))


def mutant_source(source: str, mutant: Mutant) -> str:
    """``source`` with ``mutant`` applied, as ``ast.unparse`` writes it."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[mutant.index]
    if mutant.kind == "compare":
        node.ops[mutant.op] = _SWAPS[type(node.ops[mutant.op])]()
    elif mutant.kind == "arith":
        node.op = _SIGNS[type(node.op)]()
    elif mutant.kind == "int+1":
        node.value += 1
    else:
        for parent in nodes:
            for _, value in ast.iter_fields(parent):
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is node:
                            value[i] = ast.Pass()
    return ast.unparse(tree)


def describe(module: str, mutant: Mutant, lines: list[str]) -> str:
    """``file:line kind (change): source line``, as a sweep prints a mutant."""
    return (f"{module}:{mutant.line} {mutant.kind} ({mutant.change}): "
            f"{lines[mutant.line - 1].strip()}")


def select(every: list[Mutant], sample: int | None, seed: int) -> list[Mutant]:
    """``sample`` of ``every`` drawn with ``random.Random(seed)``, in source
    order, or all of them when ``sample`` is None or not smaller."""
    if sample is None or sample >= len(every):
        return every
    return [every[i] for i in sorted(random.Random(seed).sample(range(len(every)), sample))]


def shard(selected: list[Mutant], k: int, n: int) -> list[Mutant]:
    """The mutants of ``selected`` whose index is ``k`` modulo ``n``, in order."""
    return selected[k::n]


def shard_arg(text: str) -> tuple[int, int]:
    """``K/N`` with 0 <= K < N, as ``--shard`` takes it."""
    k, slash, n = text.partition("/")
    if not (slash and k.isdecimal() and n.isdecimal() and int(k) < int(n)):
        raise argparse.ArgumentTypeError(f"expected K/N with 0 <= K < N, got {text!r}")
    return int(k), int(n)


class BaselineFailed(Exception):
    """Tier-1 fails on the unparsed module, so no mutant can be judged."""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def _passes(command: list[str], cwd: Path, timeout: float | None) -> tuple[bool, float]:
    """Whether ``command`` exits 0 within ``timeout``, and its wall time.  The
    run and every process it started are killed on timeout or interrupt."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:  # timed out or interrupted: the whole group goes
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode == 0, time.perf_counter() - start


def _ignore(directory: str, names: list[str]) -> set[str]:
    skipped = {name for name in names if name in _SKIPPED_DIRS}
    if Path(directory).name == "perfbench" and "out" in names:
        skipped.add("out")
    return skipped


def sweep(root: Path, module: str, selected: list[Mutant], command: list[str],
          log=print) -> list[Mutant]:
    """Run ``command`` against each mutant of ``root/module`` in a copy of
    ``root``; return the survivors.  Raises :class:`BaselineFailed` when the
    unparsed module fails."""
    source = (root / module).read_text()
    with tempfile.TemporaryDirectory(prefix="mutate_") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(root, checkout, ignore=_ignore)
        target = checkout / module
        own = Path("tests") / f"test_{target.stem}.py"
        runs = ([command + [str(own)]] if (checkout / own).exists() else []) + [command]
        target.write_text(ast.unparse(ast.parse(source)))
        limits = []
        for run in runs:
            ok, seconds = _passes(run, checkout, None)
            if not ok:
                raise BaselineFailed(f"{' '.join(run)} fails on the unparsed {module}")
            limits.append(2 * seconds + 30)
        log(f"baseline passes; {len(selected)} mutants")
        lines = source.splitlines()
        survivors = []
        for number, mutant in enumerate(selected, 1):
            target.write_text(mutant_source(source, mutant))
            shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)
            start = time.perf_counter()
            killed = any(not _passes(run, checkout, limit)[0]
                         for run, limit in zip(runs, limits))
            if not killed:
                survivors.append(mutant)
            log(f"[{number}/{len(selected)}] {'killed' if killed else 'SURVIVED'} in "
                f"{time.perf_counter() - start:.1f} s: {describe(module, mutant, lines)}")
    return survivors


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the temporary directory goes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True, help="e.g. src/d2dsim/stack.py")
    parser.add_argument("--sample", type=int, help="run N mutants drawn with the seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shard", type=shard_arg, default=(0, 1), metavar="K/N",
                        help="run the mutants whose index is K modulo N")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve().relative_to(ROOT).as_posix()
    source = (ROOT / module).read_text()
    every = mutants(source)
    selected = shard(select(every, args.sample, args.seed), *args.shard)
    print(f"{module}: {len(every)} mutation sites, running {len(selected)}, "
          f"seed {args.seed}, shard {args.shard[0]}/{args.shard[1]}", flush=True)
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--hypothesis-seed={args.seed}"]
    signal.signal(signal.SIGTERM, _terminate)
    start = time.perf_counter()
    try:
        survivors = sweep(ROOT, module, selected, command,
                          log=lambda line: print(line, flush=True))
    except BaselineFailed as error:
        print(f"stopped: {error}", file=sys.stderr)
        return 2
    lines = source.splitlines()
    print(f"{len(selected) - len(survivors)} killed, {len(survivors)} survived "
          f"in {time.perf_counter() - start:.0f} s")
    for mutant in survivors:
        print(describe(module, mutant, lines))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
