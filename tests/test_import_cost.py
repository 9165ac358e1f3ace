"""Importing the package loads numpy and the standard library, nothing more.

Every CLI process pays for what the import pulls in, so neither the heavy
optional libraries nor any test-side module may be reached from it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = {"scipy", "sympy", "hypothesis", "tests", "oracles", "conftest"}


def test_import_loads_no_heavy_or_test_module(tmp_path):
    code = "import sys, spectral_fractal; print('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "spectral_fractal" in out
    tops = {name.split(".")[0] for name in out}
    loaded = sorted(tops & FORBIDDEN | {t for t in tops if t.startswith("test_")})
    assert not loaded, f"importing spectral_fractal loads {loaded}"
