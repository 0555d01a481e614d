"""The installed program needs numpy only.

scipy is a test extra (the oracle of ``repro.data.synthetic``'s blur), so no
runtime path may import it.  The check runs in a fresh interpreter, because
the test session itself may have scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        __import__(info.name)
from repro.data import proxy_dataset
proxy_dataset("small")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_scipy_module_loaded():
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
