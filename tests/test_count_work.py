"""tools/count_work.py: the instruction count repeats whatever the hash seed."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("count_work", ROOT / "tools" / "count_work.py")
count_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_work)


def test_counts_are_equal_under_different_hash_seeds():
    text = (ROOT / "scenarios" / "one_to_one.ini").read_text()
    text = text.replace("sim.ttiCount = 2000", "sim.ttiCount = 200")
    counts = [count_work.count(text, env={**os.environ, "PYTHONHASHSEED": seed})
              for seed in ("1", "2")]
    assert counts[0] == counts[1]  # the set-up counts as well as the run's
    assert counts[0]["instructions"] > counts[0]["calls"] > 0
    assert counts[0]["setup_instructions"] > counts[0]["setup_calls"] > 0
