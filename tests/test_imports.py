"""scipy and numpy stay out of ``import fracpast``. The two call sites that
need scipy, the ``Beta`` law and EXACT mode's root search, load it on first
use, and so do the few functions that need numpy.

Each check runs in a fresh interpreter, because the test session itself
loads scipy and numpy (its ``Beta`` laws and quadrature references).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded_by_cli_import(package: str) -> str:
    out = _run(
        "import sys, fracpast, fracpast.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_package_and_cli_import_without_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_package_and_cli_import_without_numpy():
    assert _loaded_by_cli_import("numpy") == "[]"


def test_beta_and_exact_mode_load_scipy_on_first_use():
    out = _run(
        "import math, sys\n"
        "from fracpast import LogMode, frac_log\n"
        "from fracpast.distributions import Beta\n"
        "assert 'scipy' not in sys.modules\n"
        "assert abs(Beta(2, 1).cdf(0.3) - 0.09) <= 1e-15\n"
        "assert 'scipy.special' in sys.modules and 'scipy.optimize' not in sys.modules\n"
        "y = frac_log(0.7, 0.5, LogMode.EXACT)\n"
        "assert math.isfinite(y) and y < 0.0, y\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    assert out.returncode == 0, out.stderr
