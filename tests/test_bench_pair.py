"""scripts/bench_pair.py keeps pairs run with and without bytecode caching apart."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pair(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run = {"correct": 1, "attempted": 1, "failed": 0, "metrics": {"wall_s": 0.1}}
    monkeypatch.setattr(module, "run_once", lambda *args: run)
    return module


def _argv(out: Path) -> list:
    return ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "cli",
            "--seeds", "1", "--seconds", "1", "--out", str(out)]


def test_key_records_the_setting_and_refuses_the_other(bench_pair, monkeypatch, tmp_path):
    out = tmp_path / "BENCH_test.json"
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_pair.main(_argv(out)) == 0
    assert bench_pair.main(_argv(out)) == 0
    stored = json.loads(out.read_text())["cli"]
    assert stored["bytecode_cache"] is True and len(stored["pairs"]) == 2

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(_argv(out))
    assert exc.value.code == 2
    assert len(json.loads(out.read_text())["cli"]["pairs"]) == 2


def test_key_without_a_recorded_setting_is_refused(bench_pair, monkeypatch, tmp_path):
    out = tmp_path / "BENCH_old.json"
    out.write_text(json.dumps({"cli": {"pairs": [{"seed": 1}]}}))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    with pytest.raises(SystemExit):
        bench_pair.main(_argv(out))
