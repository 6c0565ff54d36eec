"""tools/mutate.py: mutant generation and clean-up, without a sweep."""

import argparse
import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SMALL = '''"""Module docstring, never mutated."""


def clamp(value, low=0):
    """Keep ``value`` at or above ``low``."""
    if value < low:
        value = low + 1 - 1  # both signs, for the arith mutants
    return value
'''
CHECK = "import small; assert small.clamp(-5) == 0 and small.clamp(3) == 3"


def test_generation_is_repeatable_and_seeded():
    first, second = mutate.mutants(SMALL), mutate.mutants(SMALL)
    assert first == second
    assert [mutate.mutant_source(SMALL, m) for m in first] == [
        mutate.mutant_source(SMALL, m) for m in second]
    assert [m.line for m in first] == sorted(m.line for m in first)
    assert mutate.select(first, 3, seed=7) == mutate.select(first, 3, seed=7)
    assert len(mutate.select(first, 3, seed=7)) == 3
    assert mutate.select(first, None, seed=7) == first


def test_shards_split_a_selection_by_index():
    every = mutate.mutants(SMALL)
    shards = [mutate.shard(every, k, 3) for k in range(3)]
    assert shards[1] == [every[i] for i in range(1, len(every), 3)]
    assert sorted(sum(shards, []), key=every.index) == every  # each mutant once
    assert mutate.shard(every, 0, 1) == every
    assert mutate.shard_arg("1/2") == (1, 2)
    for bad in ("2/2", "0/0", "-1/2", "1", "1/", "a/b", "1/2/3"):
        with pytest.raises(argparse.ArgumentTypeError):
            mutate.shard_arg(bad)


def test_every_mutant_compiles_and_changes_one_thing():
    baseline = ast.unparse(ast.parse(SMALL))
    sources = [mutate.mutant_source(SMALL, m) for m in mutate.mutants(SMALL)]
    for source in sources:
        compile(source, "small.py", "exec")
        assert source != baseline
        tree = ast.parse(source)
        assert ast.get_docstring(tree) == "Module docstring, never mutated."
        assert ast.get_docstring(tree.body[1]) == "Keep ``value`` at or above ``low``."
    assert len(set(sources)) == len(sources)


def test_all_four_kinds_occur():
    kinds = {m.kind for m in mutate.mutants(SMALL)}
    assert kinds == {"compare", "arith", "int+1", "pass"}


def _checkout(tmp_path):
    root = tmp_path / "root"
    (root / "src").mkdir(parents=True)
    (root / "src" / "small.py").write_text(SMALL)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    return root, scratch


def test_a_failing_baseline_stops_and_removes_the_copy(tmp_path, monkeypatch):
    root, scratch = _checkout(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    with pytest.raises(mutate.BaselineFailed):
        mutate.sweep(root, "src/small.py", mutate.mutants(SMALL),
                     [sys.executable, "-S", "-c", "raise SystemExit(1)"], log=lambda line: None)
    assert list(scratch.iterdir()) == []
    assert (root / "src" / "small.py").read_text() == SMALL


def test_a_sweep_reports_the_mutants_its_check_misses(tmp_path, monkeypatch):
    root, scratch = _checkout(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    every = mutate.mutants(SMALL)
    survivors = mutate.sweep(root, "src/small.py", every, [sys.executable, "-S", "-c", CHECK],
                             log=lambda line: None)
    assert list(scratch.iterdir()) == []
    assert (root / "src" / "small.py").read_text() == SMALL
    # the check catches every mutant but ``<`` -> ``<=``, which is equivalent:
    # at ``value == low`` the clamp assigns ``low``, the value it already has
    assert [(m.line, m.kind, m.change) for m in survivors] == [(6, "compare", "< -> <=")]
