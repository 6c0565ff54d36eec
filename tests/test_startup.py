"""Importing d2dsim generates no code at import time.

``dataclasses`` writes each decorated class's methods as source and
compiles it, and pulls in ``inspect`` with it; ``typing.NamedTuple``
compiles each field's annotation into a ``ForwardRef``; and
``collections.namedtuple`` compiles each record's ``__new__`` from a
string.  The records are ``Record`` subclasses, whose methods are written
in source, or slot classes instead, and annotations name
``collections.abc`` types, so ``typing`` is not loaded either.  Nor
does it load ``importlib.resources``, which brings ``pathlib``,
``tempfile`` and ``zipfile`` with it: the CQI table is opened by its
path next to the package's modules.  Nor does it load ``hashlib``, whose
``_hashlib`` loads OpenSSL: a shadowing draw takes SHA-512 from the module
random.py uses.  The import runs in a fresh
interpreter without ``site``, so nothing else has loaded any of these
modules.  With a warm bytecode cache the import compiles no source and
builds no regex: the standard modules d2dsim uses are loaded first, so
that only d2dsim's own work is counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import d2dsim
absent = {"dataclasses", "inspect", "importlib.resources", "typing", "hashlib"}
print(json.dumps(sorted(absent & set(sys.modules))))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


AUDIT = """
import json, sys
import bisect, collections, collections.abc, enum, functools, math, operator, os
import random, re
sys.path.insert(0, sys.argv[1])
compiled, regexes = [], []
sys.addaudithook(lambda event, args: compiled.append(args[1]) if event == "compile" else None)
compile_ = re.compile
re.compile = lambda *args, **kwargs: regexes.append(args[0]) or compile_(*args, **kwargs)
import d2dsim
print(json.dumps({"compile": [str(name) for name in compiled], "re.compile": regexes}))
"""


def test_import_compiles_no_source_and_no_regex(tmp_path):
    # once the bytecode cache is warm, every record's methods come from it:
    # no namedtuple source is compiled and no regex is built at import
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    for _ in range(2):  # the first run fills the cache
        done = subprocess.run([sys.executable, "-S", "-c", AUDIT, str(SRC)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"compile": [], "re.compile": []}
