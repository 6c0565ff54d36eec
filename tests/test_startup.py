"""Importing d2dsim generates no code at import time.

``dataclasses`` writes each decorated class's methods as source and
compiles it, and pulls in ``inspect`` with it; ``typing.NamedTuple``
compiles each field's annotation into a ``ForwardRef``.  The records are
``collections.namedtuple``s or slot classes instead, and annotations
name ``collections.abc`` types, so ``typing`` is not loaded either.  Nor
does it load ``importlib.resources``, which brings ``pathlib``,
``tempfile`` and ``zipfile`` with it: the CQI table is opened by its
path next to the package's modules.  The import runs in a fresh
interpreter without ``site``, so nothing else has loaded any of these
modules.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import d2dsim
absent = {"dataclasses", "inspect", "importlib.resources", "typing"}
print(json.dumps(sorted(absent & set(sys.modules))))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
