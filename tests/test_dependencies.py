"""The dependency line: CI installs ``numpy scipy pytest hypothesis`` only.

``repro.interfaces`` used to import ``networkx`` at module top, which no CI
job installs.  Every ``repro`` module is imported here in a subprocess with
``networkx`` blocked, so the check does not depend on what this machine
happens to have installed.
"""

import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
"""


def test_every_module_imports_without_networkx():
    source = Path(__file__).resolve().parent.parent / "src"
    finished = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
