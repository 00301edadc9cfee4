"""End-to-end tests of the command-line front end.

Every test drives ``main(argv)`` directly and inspects the captured output,
so the full argument-parsing, dispatch, and serialization path is covered
without spawning subprocesses.
"""

import json
import math
from pathlib import Path

import pytest

from fracpast.cli import main
from fracpast.orders import OrderReport

DATA_FILE = str(Path(__file__).resolve().parent.parent / "data" / "odisha_covid_weekly.csv")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


class TestMeasure:
    def test_uniform_efcpe(self, capsys):
        code, payload, _ = run_json(
            capsys, ["measure", "--dist", "uniform:a=1", "--alpha", "0.5"]
        )
        assert code == 0
        assert payload["command"] == "measure"
        assert payload["kind"] == "efcpe"
        (row,) = payload["rows"]
        assert row["value"] == pytest.approx(0.19634954084950124, rel=1e-9, abs=0.0)
        assert row["mode"] == "approx"
        assert row["family"] == "uniform"
        assert row["diverged"] is False

    def test_multiple_orders_in_request_order(self, capsys):
        code, payload, _ = run_json(
            capsys, ["measure", "--dist", "uniform:a=1", "--alphas", "0.9,0.3"]
        )
        assert code == 0
        assert [row["alpha"] for row in payload["rows"]] == [0.9, 0.3]

    def test_diverged_measure_exits_numeric(self, capsys):
        code, payload, _ = run_json(
            capsys, ["measure", "--dist", "pareto:k=0.5", "--alpha", "0.6"]
        )
        assert code == 2
        (row,) = payload["rows"]
        assert row["diverged"] is True
        assert row["value"] is None
        # x units: the integrand falls as x^(-k/a) = x^(-0.5/0.6).
        assert row["tail_exponent"] == pytest.approx(-0.5 / 0.6, abs=0.01)

    def test_gini_at_small_rate(self, capsys):
        # 1/2 at every rate; the x-axis tail screen once flagged this one.
        code, payload, _ = run_json(
            capsys, ["measure", "--kind", "gini", "--dist", "exponential:rate=1e-4"]
        )
        assert code == 0
        assert payload["rows"][0]["value"] == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_gini_kind(self, capsys):
        code, payload, _ = run_json(
            capsys, ["measure", "--kind", "gini", "--dist", "uniform:a=1", "--alpha", "0.5"]
        )
        assert code == 0
        assert payload["rows"][0]["value"] == pytest.approx(1.0 / 3.0, rel=1e-9, abs=0.0)

    def test_classic_past_kind(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["measure", "--kind", "classic", "--past", "--dist", "uniform:a=1", "--alpha", "0.5"],
        )
        assert code == 0
        expected = math.gamma(1.5) / 2.0 ** 1.5
        assert payload["rows"][0]["value"] == pytest.approx(expected, rel=1e-7, abs=0.0)

    def test_exact_mode_row(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.75", "--mode", "exact"],
        )
        assert code == 0
        (row,) = payload["rows"]
        assert row["mode"] == "exact"
        # The exact kernel dominates the factorial-approximation kernel.
        assert row["value"] > 0.3

    @pytest.mark.parametrize("kind", ["modified", "classic", "gini"])
    def test_exact_mode_refused_where_the_kind_takes_none(self, capsys, kind):
        argv = ["measure", "--kind", kind, "--dist", "uniform:a=1", "--alpha", "0.5", "--mode"]
        code, out, err = run_cli(capsys, argv + ["exact"])
        assert code == 1
        assert out == ""
        assert "efcpe, efcre and paired" in err
        # APPROX is what these kinds compute, so asking for it is no error.
        assert run_cli(capsys, argv + ["approx"])[0] == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--dist", "nosuch:a=1", "--alpha", "0.5"],
            ["nosuchverb"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--bogus"],
            ["empirical", "--file", "/no/such/file.csv", "--alpha", "0.5"],
            ["measure", "--dist", "uniform:a=1"],
            ["measure", "--dist", "uniform:a=1", "--alphas", "0.3,abc"],
            ["measure", "--dist", "uniform:a=1", "--alphas", ""],
            ["bivariate", "--law", "pentagon", "--alpha", "0.5"],
            ["chaos"],
            ["chaos", "--s-list", "3.6"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--format", "text"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--rel-tol", "nan"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--rel-tol", "-1"],
            ["dynamic", "--dist", "uniform:a=1", "--t", "nan", "--alpha", "0.5"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--max-subdiv", "-5"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--abs-tol", "1e-9"],
            # The measures take no tolerance: these flags are unknown.
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--rel-tol", "1e-12"],
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--max-subdiv", "2000"],
        ],
    )
    def test_exit_one_with_message(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.strip()


class TestEmpirical:
    def test_weekly_series(self, capsys):
        code, payload, _ = run_json(
            capsys, ["empirical", "--file", DATA_FILE, "--alphas", "0.2,1.0"]
        )
        assert code == 0
        rows = payload["rows"]
        assert all(row["n"] == 20 for row in rows)
        assert rows[0]["value"] == pytest.approx(424.4105095, rel=1e-6, abs=0.0)
        assert rows[1]["value"] == pytest.approx(140.1155942, rel=1e-6, abs=0.0)


class TestBivariate:
    def test_independent_mutual_information_is_zero(self, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "bivariate",
                "--law",
                "indep(uniform:a=1,uniform:a=1)",
                "--kind",
                "fcpmi",
                "--alpha",
                "0.5",
            ],
        )
        assert code == 0
        assert payload["rows"][0]["value"] == 0.0

    def test_triangle_law_at_order_one(self, capsys):
        code, payload, _ = run_json(
            capsys, ["bivariate", "--law", "triangle", "--alpha", "1.0"]
        )
        assert code == 0
        (row,) = payload["rows"]
        assert row["value"] == pytest.approx(2.0 / 9.0, rel=1e-6, abs=0.0)
        assert row["law"] == "triangle"

    def test_fgm_mutual_information(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["bivariate", "--law", "fgm:theta=-0.5", "--kind", "fcpmi", "--alpha", "1.0"],
        )
        assert code == 0
        assert payload["rows"][0]["value"] == pytest.approx(0.01296186, abs=1e-6)


class TestDynamic:
    def test_truncated_uniform_with_decomposition(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["dynamic", "--dist", "uniform:a=1", "--t", "0.5", "--alpha", "0.5", "--decompose"],
        )
        assert code == 0
        assert payload["t"] == 0.5
        (row,) = payload["rows"]
        assert row["value"] == pytest.approx(0.09817477042475062, rel=1e-7, abs=0.0)
        assert row["integral_term"] == pytest.approx(0.19251149910728163, rel=1e-7, abs=0.0)
        assert row["boundary_term"] == pytest.approx(-0.09433672868253101, rel=1e-7, abs=0.0)
        assert row["integral_term"] + row["boundary_term"] == pytest.approx(
            row["value"], abs=1e-9
        )

    def test_decomposition_sums_to_value_to_rounding(self, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "dynamic", "--dist", "weibull:scale=1,shape=0.6", "--t", "0.5", "--alpha", "0.35",
                "--decompose",
            ],
        )
        assert code == 0
        (row,) = payload["rows"]
        assert row["integral_term"] + row["boundary_term"] == pytest.approx(
            row["value"], rel=1e-12, abs=0.0
        )

    def test_decomposition_computes_the_measure_once(self, capsys, monkeypatch):
        import fracpast.entropy

        calls = []
        original = fracpast.entropy.dynamic_efcpe

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fracpast.entropy, "dynamic_efcpe", counted)
        code, _, _ = run_json(
            capsys,
            ["dynamic", "--dist", "uniform:a=1", "--t", "0.5", "--alpha", "0.5", "--decompose"],
        )
        assert code == 0
        assert len(calls) == 1


class TestCoherent:
    def test_parallel_pair_with_bounds(self, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "coherent",
                "--system",
                "parallel:2",
                "--dist",
                "uniform:a=1",
                "--alpha",
                "0.5",
                "--bounds",
            ],
        )
        assert code == 0
        (row,) = payload["rows"]
        for key in ("omega1", "omega2", "lower", "upper", "sandwich_holds"):
            assert key in row
        assert row["system"] == "parallel:2"
        assert row["value"] == pytest.approx(0.23271056693257147, rel=1e-7, abs=0.0)
        assert row["omega2"] == pytest.approx(4.0, rel=1e-6, abs=0.0)
        assert row["upper"] == pytest.approx(0.7853981633980079, rel=1e-6, abs=0.0)
        assert 0.0 <= row["omega1"] < 1e-6
        assert row["sandwich_holds"] is True

    def test_divergent_system_exits_numeric(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["coherent", "--system", "parallel:2", "--dist", "pareto:k=0.5", "--alpha", "0.5"],
        )
        assert code == 2
        (row,) = payload["rows"]
        assert row["diverged"] is True
        assert row["value"] is None

    @pytest.mark.parametrize("system", ["series:3", "koutofn:k=2,n=4", "twooutoffour"])
    def test_other_systems_run(self, capsys, system):
        code, payload, _ = run_json(
            capsys,
            ["coherent", "--system", system, "--dist", "uniform:a=1", "--alpha", "0.5"],
        )
        assert code == 0
        assert payload["rows"][0]["value"] > 0.0


class TestOrders:
    def test_ordered_pair_reports_rows(self, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "orders",
                "--dist-x",
                "uniform:a=1",
                "--dist-y",
                "uniform:a=2",
                "--alphas",
                "0.3,0.6",
            ],
        )
        assert code == 0
        assert payload["dispersive"] == "Yes"
        assert payload["witness"] is None
        assert "grid_size" not in payload
        assert len(payload["rows"]) == 2
        assert all(row["holds"] is True for row in payload["rows"])

    def test_refused_pair_reports_witness_and_no_rows(self, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "orders",
                "--dist-x",
                "uniform:a=2",
                "--dist-y",
                "uniform:a=1",
                "--alpha",
                "0.5",
            ],
        )
        assert code == 0
        assert payload["dispersive"] == "No"
        assert 0.0 < payload["witness"] < 1.0
        assert payload["rows"] == []

    def test_rows_follow_the_verdict_of_one_check(self, capsys, monkeypatch):
        # The pair is not ordered, but the rows follow the verdict the
        # payload reports, from the one check made per call.
        import fracpast.orders

        calls = []

        def fixed(X, Y):
            calls.append((X, Y))
            return OrderReport("Yes", None)

        monkeypatch.setattr(fracpast.orders, "dispersive_check", fixed)
        code, payload, _ = run_json(
            capsys,
            ["orders", "--dist-x", "uniform:a=2", "--dist-y", "beta:p=2,q=2", "--alphas", "0.5"],
        )
        assert code == 0
        assert payload["dispersive"] == "Yes"
        assert [row["alpha"] for row in payload["rows"]] == [0.5]
        assert len(calls) == 1

    def test_grid_flag_is_gone(self, capsys):
        code = main(["orders", "--dist-x", "uniform:a=1", "--dist-y", "uniform:a=1", "--grid", "64"])
        assert code == 1
        assert "unrecognized arguments: --grid" in capsys.readouterr().err


class TestChaos:
    def test_both_sweeps_written(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            [
                "chaos",
                "--steps",
                "3",
                "--s-min",
                "2.4",
                "--s-max",
                "2.6",
                "--retain",
                "4",
                "--s-list",
                "3.6,4.0",
                "--alpha",
                "0.5",
                "--burn-in",
                "200",
                "--length",
                "500",
                "--out-dir",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert [entry["rows"] for entry in payload["rows"]] == [12, 2]
        bif = (tmp_path / "bifurcation.csv").read_text().splitlines()
        assert bif[0] == "s,value"
        assert len(bif) == 13
        table = (tmp_path / "efcpe_vs_s.csv").read_text().splitlines()
        assert table[0] == "s,alpha,value"
        assert len(table) == 3
        first = table[1].split(",")
        assert float(first[0]) == 3.6
        assert float(first[1]) == 0.5
        assert float(first[2]) > 0.0

    def test_bifurcation_only(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            [
                "chaos",
                "--steps",
                "2",
                "--s-min",
                "2.5",
                "--s-max",
                "2.5",
                "--retain",
                "3",
                "--burn-in",
                "100",
                "--length",
                "100",
                "--out-dir",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert (tmp_path / "bifurcation.csv").exists()
        assert not (tmp_path / "efcpe_vs_s.csv").exists()


class TestReproduce:
    def test_table_one_reports_known_discrepancies(self, capsys):
        code, payload, _ = run_json(capsys, ["reproduce", "--table", "1"])
        assert code == 2
        assert payload["all_ok"] is False
        failing = [row["id"] for row in payload["rows"] if not row["ok"]]
        assert failing == ["efcpe:alpha=0.3", "efcpe:alpha=0.6", "efcpe:alpha=0.7"]

    @pytest.mark.parametrize("table", ["2", "3", "4", "5", "6"])
    def test_remaining_tables_reproduce(self, capsys, table):
        code, payload, _ = run_json(capsys, ["reproduce", "--table", table])
        assert code == 0
        assert payload["all_ok"] is True

    @pytest.mark.parametrize("example", ["2.1", "2.2", "2.4", "4.3"])
    def test_worked_examples_reproduce(self, capsys, example):
        code, payload, _ = run_json(capsys, ["reproduce", "--example", example])
        assert code == 0
        assert payload["all_ok"] is True

    def test_table_and_example_together_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["reproduce", "--table", "1", "--example", "2.1"])
        assert code == 1
        assert "exactly one" in err

    def test_neither_selector_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["reproduce"])
        assert code == 1

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["reproduce", "--table", "3", "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert lines[-1] == "PASS table3: 16/16 cells"


class TestOutputContracts:
    def test_json_byte_stable(self, capsys):
        argv = ["measure", "--dist", "uniform:a=1", "--alphas", "0.3,0.5"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_json_sorted_keys_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, ["measure", "--dist", "uniform:a=1", "--alpha", "0.5"])
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_non_finite_values_serialized_as_null(self, capsys):
        _, out, _ = run_cli(capsys, ["measure", "--dist", "pareto:k=0.5", "--alpha", "0.6"])
        assert "NaN" not in out
        assert json.loads(out)["rows"][0]["value"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["measure", "--dist", "uniform:a=1", "--alphas", "0.3,0.5", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert "# command=measure" in lines
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx].startswith("measure,alpha,mode,value")
        assert len(lines) == header_idx + 3

    def test_csv_byte_stable(self, capsys):
        argv = ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--format", "csv"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            ["measure", "--dist", "uniform:a=1", "--alpha", "0.5", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["rows"][0]["value"] == pytest.approx(0.19635, abs=1e-5)
