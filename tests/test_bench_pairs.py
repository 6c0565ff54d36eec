"""tools/bench_pairs.py: the work counts it writes beside the wall-time pairs."""

import importlib.util
import json
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_work_counts_have_one_count_per_side_and_scenario(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # as when run as a script
    text = (ROOT / "scenarios" / "one_to_one.ini").read_text()
    text = text.replace("sim.ttiCount = 2000", "sim.ttiCount = 50")
    work = bench_pairs.work_counts({"parent": ROOT, "change": ROOT}, [text])
    assert json.loads(json.dumps(work)) == work  # written as it is
    assert set(work) == {"python", "parent", "change", "change_to_parent_instructions",
                         "change_to_parent_setup_instructions"}
    assert work["python"] == platform.python_version()
    for side in ("parent", "change"):
        assert set(work[side]) == {"instructions", "calls", "setup_instructions",
                                   "setup_calls"}
        for prefix in ("", "setup_"):
            instructions, = work[side][prefix + "instructions"]
            calls, = work[side][prefix + "calls"]
            assert instructions > calls > 0
    assert work["parent"] == work["change"]  # the same source counts the same
    assert work["change_to_parent_instructions"] == [1.0]
    assert work["change_to_parent_setup_instructions"] == [1.0]


def test_src_lines_count_each_sides_modules(tmp_path):
    for side, files in (("parent", {"a.py": "x\ny\n", "b.py": "z"}), ("change", {"a.py": ""})):
        package = tmp_path / side / "src" / "d2dsim"
        package.mkdir(parents=True)
        for name, text in {**files, "table.txt": "not\ncounted\n"}.items():
            (package / name).write_text(text)
    lines = bench_pairs.src_lines({side: tmp_path / side for side in ("parent", "change")})
    assert lines == {"parent": 3, "change": 0}
    assert json.loads(json.dumps(lines)) == lines
