"""Memory of a run follows its queued data, not its length."""

import dataclasses
import gc
import tracemalloc
from pathlib import Path

import pytest

from d2dsim import Engine, load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _retained_bytes(path, ttis):
    """Bytes that building and running ``path`` for ``ttis`` TTIs allocated
    and still holds, measured while the engine and its result are alive."""
    config = load_scenario(path)
    config = dataclasses.replace(config, sim=dataclasses.replace(config.sim, tti_count=ttis))
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(config)
        result = engine.run()  # held, like the engine, while measured
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained


@pytest.mark.parametrize("name", ["one_to_one.ini", "one_to_many.ini"])
def test_retained_memory_does_not_grow_with_run_length(name):
    short = _retained_bytes(SCENARIOS / name, 1000)
    long = _retained_bytes(SCENARIOS / name, 4000)
    assert long - short <= 16 * 1024, (short, long)
