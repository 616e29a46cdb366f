"""The dependency line: CI installs ``numpy scipy pytest hypothesis`` only.

``repro.interfaces`` used to import ``networkx`` at module top, which no CI
job installs.  Every ``repro`` module is imported here in a subprocess with
``networkx`` blocked, so the check does not depend on what this machine
happens to have installed.

The same file holds the other "what ``src/`` may not contain" check: one tree
implementation in ``repro.ml``.
"""

import os
import re
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


def test_one_tree_implementation_in_src():
    """No second path in ``src/``: the node-web CART lives on only as the oracle.

    ``repro.ml``'s trees are flat arrays that a whole matrix descends level by
    level; ``tests/ml_tree_oracle.py`` keeps the seed's ``_Node`` web, its
    per-threshold split loop and its row-by-row descent for the parity tests.
    """
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "ml"
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"class\s+_(Node|TreeBuilder)\b", source), f"{path.name} defines a node-web tree"
    for name in ("tree.py", "ensemble.py"):
        source = (package / name).read_text()
        loops = re.findall(r"for\s+\w+\s+in\s+(?:range\((?:len\()?X\b|thresholds\b)[^\n]*", source)
        assert not loops, f"{name} loops over rows or thresholds in Python: {loops}"
