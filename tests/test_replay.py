"""Replay on every other installed CPython 3.10 or newer.

``tests/replay_check.py`` needs only the standard library, so it runs
under interpreters that have no pytest.  Interpreters are looked for
among pyenv's versions (``$PYENV_ROOT``, default ``~/.pyenv``) and as
``python3.1x`` in every ``PATH`` directory; each executable runs once,
and the one running these tests is left to ``tests/test_golden.py``.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import replay_check

CHECK = Path(replay_check.__file__)
# fails outright under a pyenv shim with no version selected
PROBE = "import os, sys; print(sys.version_info >= (3, 10), os.path.realpath(sys.executable))"


def _run_each(commands: list[list[str]]) -> list[subprocess.CompletedProcess | None]:
    """Run the commands two at a time; None where one could not start or finish."""
    def run(command):
        try:
            return subprocess.run(command, capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            return None
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, commands))


def _other_interpreters() -> list[str]:
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = sorted(str(path) for path in pyenv.glob("3.1*/bin/python3"))
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        candidates += sorted(str(path) for path in Path(folder).glob("python3.1[0-9]"))
    seen, found = {os.path.realpath(sys.executable)}, []
    for exe, probe in zip(candidates, _run_each([[exe, "-c", PROBE] for exe in candidates])):
        if probe is None or probe.returncode:
            continue
        recent, _, real = probe.stdout.strip().partition(" ")
        if recent == "True" and real not in seen:
            seen.add(real)
            found.append(exe)
    return found


def test_replay_matches_the_goldens_on_every_other_python():
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or newer among pyenv versions or on PATH")
    runs = _run_each([[exe, str(CHECK)] for exe in interpreters])
    failed = [f"{exe}: {run.stdout}{run.stderr}" if run else f"{exe}: did not finish"
              for exe, run in zip(interpreters, runs) if not run or run.returncode]
    assert not failed, "\n".join(failed)


def test_replay_check_names_an_altered_digest(tmp_path, capsys):
    golden = json.loads((replay_check.ROOT / "perfbench" / "golden.json").read_text())
    entry = golden["scenarios"]["scenarios/one_to_one.ini"]
    entry["trace_sha256"] = "0" * 64
    altered = tmp_path / "golden.json"
    altered.write_text(json.dumps(golden))
    assert replay_check.main(["replay_check.py", str(altered)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{sys.version.split()[0]}: scenarios/one_to_one.ini: trace_sha256 differs"]
