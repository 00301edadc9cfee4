"""What each import and each CLI verb loads.

``import fracpast`` loads no submodule: each public name imports its home
module on first access. ``import fracpast.cli`` loads only the error
taxonomy, and each verb loads the modules it uses. Loading every module
loads neither scipy nor numpy. The one call site that needs scipy, the
``Beta`` law, loads it on first use, and so do the few functions that need
numpy; EXACT mode never loads scipy.

Each check runs in a fresh interpreter, because the test session itself
loads every module, scipy and numpy (its ``Beta`` laws and quadrature
references).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA_FILE = str(ROOT / "data" / "odisha_covid_weekly.csv")


def _run(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded(code: str, *argv: str, packages: tuple = ("fracpast",)) -> list:
    """The modules of the packages in sys.modules after running code."""
    out = _run(
        code + "\nimport sys, json\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))\n",
        *argv,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_by_verb(*argv: str, packages: tuple = ("fracpast",)) -> list:
    """The modules of the packages a CLI call loads; the call itself must succeed."""
    return _loaded(
        "import contextlib, io, sys\n"
        "from fracpast.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n",
        *argv,
        packages=packages,
    )


# Every module loaded, through the CLI and every public name.
_EVERY_MODULE = "import fracpast, fracpast.cli\nfor name in fracpast.__all__: getattr(fracpast, name)\n"


def test_package_and_cli_import_without_scipy():
    assert _loaded(_EVERY_MODULE, packages=("scipy",)) == []


def test_package_and_cli_import_without_numpy():
    assert _loaded(_EVERY_MODULE, packages=("numpy",)) == []


# The record types are named tuples, so nothing loads dataclasses, nor the
# inspect, ast and dis modules behind it.
_RECORD_BUILDERS = ("dataclasses", "inspect")


def test_every_module_loads_no_dataclasses():
    assert _loaded(_EVERY_MODULE, packages=_RECORD_BUILDERS) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--dist", "uniform:a=1", "--alpha", "0.5"),
        ("empirical", "--file", DATA_FILE, "--alpha", "0.5"),
        ("bivariate", "--law", "triangle", "--alpha", "0.5"),
        ("dynamic", "--dist", "uniform:a=1", "--t", "0.5", "--alpha", "0.5", "--decompose"),
        ("coherent", "--system", "parallel:2", "--dist", "uniform:a=1", "--alpha", "0.5", "--bounds"),
        ("orders", "--dist-x", "uniform:a=1", "--dist-y", "uniform:a=2", "--alphas", "0.3"),
        ("chaos", "--steps", "20", "--s-min", "2.5", "--s-max", "4.0", "--s-list", "3.6",
         "--alphas", "0.5", "--out-dir"),
        ("reproduce", "--table", "6"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_verb_loads_dataclasses(argv, tmp_path):
    if argv[-1] == "--out-dir":
        argv += (str(tmp_path),)
    assert _loaded_by_verb(*argv, packages=_RECORD_BUILDERS) == []


def test_package_import_loads_no_submodule():
    assert _loaded("import fracpast") == ["fracpast"]


def test_cli_import_loads_only_the_errors():
    assert _loaded("import fracpast.cli") == ["fracpast", "fracpast.cli", "fracpast.errors"]


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "--table", "4"),
        ("reproduce", "--table", "5"),
        ("reproduce", "--example", "4.3"),
        ("empirical", "--file", DATA_FILE, "--alpha", "0.5"),
    ],
    ids=["table4", "table5", "example4.3", "empirical"],
)
def test_spacing_verbs_skip_the_laws_and_the_quadrature(argv):
    loaded = _loaded_by_verb(*argv)
    for module in ("quadrature", "distributions", "entropy"):
        assert f"fracpast.{module}" not in loaded


def test_measure_loads_only_the_univariate_modules():
    loaded = _loaded_by_verb("measure", "--dist", "uniform:a=1", "--alpha", "0.5")
    assert "fracpast.entropy" in loaded
    for module in ("multivariate", "coherent", "empirical", "chaos", "orders"):
        assert f"fracpast.{module}" not in loaded


def test_every_public_name_resolves():
    out = _run(
        "import fracpast\n"
        "missing = [n for n in fracpast.__all__ if getattr(fracpast, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert set(fracpast.__all__) <= set(dir(fracpast))\n"
        "assert fracpast.efcpe is __import__('fracpast.entropy').entropy.efcpe\n"
        "try:\n"
        "    fracpast.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
        "from fracpast import distributions, DomainError\n"
        "assert distributions.Uniform(1.0).cdf(0.5) == 0.5\n"
        "assert fracpast.orders.dispersive_check is fracpast.dispersive_check\n"
        "assert issubclass(DomainError, ValueError)\n"
    )
    assert out.returncode == 0, out.stderr


def test_beta_loads_scipy_on_first_use_and_exact_mode_never():
    out = _run(
        "import math, sys\n"
        "from fracpast import LogMode, Uniform, efcpe, frac_log\n"
        "from fracpast.distributions import Beta\n"
        "ys = [frac_log(0.7, p, LogMode.EXACT) for p in (1e-300, 0.01, 0.5, 0.9)]\n"
        "assert all(math.isfinite(y) and y < 0.0 for y in ys), ys\n"
        "assert math.isfinite(efcpe(Uniform(1.0), 0.75, LogMode.EXACT).value)\n"
        "assert 'scipy' not in sys.modules\n"
        "assert abs(Beta(2, 1).cdf(0.3) - 0.09) <= 1e-15\n"
        "assert 'scipy.special' in sys.modules and 'scipy.optimize' not in sys.modules\n"
    )
    assert out.returncode == 0, out.stderr
