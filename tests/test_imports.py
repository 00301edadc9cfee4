"""scipy stays out of ``import fracpast``; the two call sites that need it,
the ``Beta`` law and EXACT mode's root search, load it on first use.

Each check runs in a fresh interpreter, because the test session itself
loads scipy (its ``Beta`` laws and quadrature references).
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


def test_package_and_cli_import_without_scipy():
    out = _run(
        "import sys, fracpast, fracpast.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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
