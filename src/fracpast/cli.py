"""Command-line front end for the fracpast toolkit.

One executable, eight verbs:

* ``measure``    -- univariate measures over one or more fractional orders
* ``empirical``  -- the spacing estimator on a single-column CSV sample
* ``bivariate``  -- joint-law measures and the past mutual information
* ``dynamic``    -- truncated-past measure, optionally decomposed
* ``coherent``   -- system lifetime measure with distortion bounds
* ``orders``     -- dispersive-order check and its entropy consequence
* ``chaos``      -- logistic-map sweeps emitted as CSV for plotting
* ``reproduce``  -- recompute the reference expectation tables shipped as
  fixtures and report pass/fail per cell

Exit codes: 0 success, 1 user error (bad flags, bad specs, unreadable
files), 2 numeric failure (diverged or non-convergent computation, or a
reproduction cell out of tolerance). Output is byte-stable for fixed
inputs: JSON is emitted with sorted keys and CSV with a fixed column
order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from importlib import resources
from typing import List, Optional, Sequence

from .chaos import LogisticConfig, bifurcation_sweep, efcpe_vs_s
from .coherent import (
    DistortionFunction,
    distortion,
    omega_bounds,
    parallel_uniform_closed_form,
    sandwich_check,
    system_efcpe,
)
from .distributions import Uniform, independent_sum, parse_spec
from .empirical import Sample, empirical_efcpe, exp_spacing_moments, load_sample_csv, unif_spacing_moments
from .entropy import (
    classic_fractional,
    dynamic_decomposition,
    dynamic_efcpe,
    efcpe,
    efcpe_closed_form,
    efcre,
    gini,
    modified_efcpe,
    paired_phi_entropy,
)
from .errors import (
    DivergedError,
    DomainError,
    MaxSubdivisionsError,
    NonConvergentError,
    UnsupportedError,
)
from .fraclog import LogMode
from .multivariate import (
    BivariateLaw,
    bivariate_efcpe,
    fcpmi,
    fgm_law,
    independent_law,
    modified_bivariate_efcpe,
    triangle_law,
)
from .orders import dispersive_check, ordering_validation
from .quadrature import QuadConfig

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

_TABLES = ("1", "2", "3", "4", "5", "6")
_EXAMPLES = ("2.1", "2.2", "2.4", "4.3")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception.

    The stock parser calls sys.exit(2); this front end reserves exit code 2
    for numeric failures, so usage errors are rerouted to exit code 1.
    """

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_alphas(args) -> List[float]:
    if args.alphas is not None:
        try:
            values = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad --alphas list: {exc}")
        if not values:
            raise _UsageError("--alphas list is empty")
        return values
    if args.alpha is not None:
        return [args.alpha]
    raise _UsageError("one of --alpha or --alphas is required")


def _quad_config(args) -> Optional[QuadConfig]:
    if args.abs_tol is None and args.rel_tol is None and args.max_subdiv is None:
        return None
    base = QuadConfig()
    return QuadConfig(
        abs_tol=args.abs_tol if args.abs_tol is not None else base.abs_tol,
        rel_tol=args.rel_tol if args.rel_tol is not None else base.rel_tol,
        max_subdivisions=args.max_subdiv
        if args.max_subdiv is not None
        else base.max_subdivisions,
    )


def _log_mode(args) -> LogMode:
    return LogMode.EXACT if args.mode == "exact" else LogMode.APPROX


def _jsonable(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _rows_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    for key in sorted(payload):
        if key != "rows":
            buf.write(f"# {key}={payload[key]}\n")
    rows = payload.get("rows", [])
    if rows:
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fields})
    return buf.getvalue()


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        text = _rows_to_csv(_jsonable(payload))
    else:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_law(spec: str) -> BivariateLaw:
    s = spec.strip()
    low = s.lower()
    if low == "triangle":
        return triangle_law()
    if low.startswith("fgm:"):
        body = s.split(":", 1)[1]
        params = {}
        for piece in body.split(","):
            if "=" not in piece:
                raise DomainError(f"expected param=value in fgm spec, got {piece!r}")
            key, val = piece.split("=", 1)
            params[key.strip()] = float(val)
        if set(params) != {"theta"}:
            raise DomainError(f"fgm law takes exactly theta=, got {sorted(params)}")
        return fgm_law(params["theta"])
    if low.startswith("indep(") and s.endswith(")"):
        body = s[len("indep(") : -1]
        for sep in (";", "|"):
            if sep in body:
                left, right = body.split(sep, 1)
                return independent_law(parse_spec(left), parse_spec(right))
        # Comma-separated component specs: the comma also separates
        # parameters, so try each split point until both halves parse.
        positions = [i for i, ch in enumerate(body) if ch == ","]
        for pos in positions:
            try:
                left = parse_spec(body[:pos])
                right = parse_spec(body[pos + 1 :])
            except DomainError:
                continue
            return independent_law(left, right)
        raise DomainError(f"cannot split independent-law spec {body!r} into two components")
    raise DomainError(
        f"unknown bivariate law {spec!r}; use triangle, fgm:theta=T, or indep(<spec>,<spec>)"
    )


def _parse_system(spec: str) -> DistortionFunction:
    s = spec.strip().lower()
    if ":" in s:
        kind, body = s.split(":", 1)
        params = {}
        pieces = [p for p in body.split(",") if p.strip()]
        if len(pieces) == 1 and "=" not in pieces[0]:
            key = {"parallel": "n", "series": "n", "prhr": "delta"}.get(kind)
            if key is None:
                raise DomainError(f"system kind {kind!r} needs named parameters")
            params[key] = pieces[0]
        else:
            for piece in pieces:
                if "=" not in piece:
                    raise DomainError(f"expected param=value in system spec, got {piece!r}")
                key, val = piece.split("=", 1)
                params[key.strip()] = val
        converted = {}
        for key, val in params.items():
            converted[key] = float(val) if kind == "prhr" else int(val)
        return distortion(kind, **converted)
    return distortion(s)


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_measure(args) -> int:
    X = parse_spec(args.dist)
    cfg = _quad_config(args)
    mode = _log_mode(args)
    rows = []
    exit_code = EXIT_OK
    if args.kind == "gini":
        rows.append({"value": gini(X)})
    else:
        for alpha in _parse_alphas(args):
            if args.kind == "efcpe":
                res = efcpe(X, alpha, mode, cfg)
            elif args.kind == "efcre":
                res = efcre(X, alpha, mode, cfg)
            elif args.kind == "modified":
                res = modified_efcpe(X, alpha, cfg)
            elif args.kind == "classic":
                res = classic_fractional(X, alpha, past=args.past, cfg=cfg)
            else:
                res = paired_phi_entropy(X, alpha, mode, cfg)
            rows.append(res.record(X))
            if res.diverged:
                exit_code = EXIT_NUMERIC
    payload = {"command": "measure", "kind": args.kind, "dist": args.dist, "rows": rows}
    _emit(payload, args)
    return exit_code


def _cmd_empirical(args) -> int:
    sample = load_sample_csv(args.file)
    rows = [
        {"alpha": alpha, "n": sample.n, "value": empirical_efcpe(sample, alpha)}
        for alpha in _parse_alphas(args)
    ]
    payload = {"command": "empirical", "file": args.file, "rows": rows}
    _emit(payload, args)
    return EXIT_OK


def _cmd_bivariate(args) -> int:
    law = _parse_law(args.law)
    rows = []
    exit_code = EXIT_OK
    for alpha in _parse_alphas(args):
        if args.kind == "fcpmi":
            rows.append({"alpha": alpha, "kind": "fcpmi", "value": fcpmi(law, alpha)})
            continue
        if args.kind == "modified":
            res = modified_bivariate_efcpe(law, alpha)
        else:
            res = bivariate_efcpe(law, alpha)
        rec = res.record()
        rec["law"] = law.label
        rows.append(rec)
        if res.diverged:
            exit_code = EXIT_NUMERIC
    payload = {"command": "bivariate", "law": args.law, "kind": args.kind, "rows": rows}
    _emit(payload, args)
    return exit_code


def _cmd_dynamic(args) -> int:
    X = parse_spec(args.dist)
    cfg = _quad_config(args)
    mode = _log_mode(args)
    rows = []
    exit_code = EXIT_OK
    for alpha in _parse_alphas(args):
        res = dynamic_efcpe(X, alpha, args.t, mode, cfg)
        rec = res.record(X)
        rec["t"] = args.t
        if args.decompose:
            integral_term, boundary_term = dynamic_decomposition(X, alpha, args.t, mode)
            rec["integral_term"] = integral_term
            rec["boundary_term"] = boundary_term
        rows.append(rec)
        if res.diverged:
            exit_code = EXIT_NUMERIC
    payload = {"command": "dynamic", "dist": args.dist, "t": args.t, "rows": rows}
    _emit(payload, args)
    return exit_code


def _cmd_coherent(args) -> int:
    q = _parse_system(args.system)
    X = parse_spec(args.dist)
    rows = []
    exit_code = EXIT_OK
    for alpha in _parse_alphas(args):
        res = system_efcpe(q, X, alpha)
        rec = res.record(X)
        rec["system"] = q.label
        if args.bounds:
            report = sandwich_check(q, X, alpha)
            rec["omega1"] = report.omega1
            rec["omega2"] = report.omega2
            rec["lower"] = report.lower
            rec["upper"] = report.upper
            rec["sandwich_holds"] = report.holds
        rows.append(rec)
        if res.diverged:
            exit_code = EXIT_NUMERIC
    payload = {"command": "coherent", "system": args.system, "dist": args.dist, "rows": rows}
    _emit(payload, args)
    return exit_code


def _cmd_orders(args) -> int:
    X = parse_spec(args.dist_x)
    Y = parse_spec(args.dist_y)
    report = dispersive_check(X, Y, args.grid)
    rows = []
    wants_values = args.alphas is not None or args.alpha is not None
    if wants_values and report.holds == "Yes":
        rows = ordering_validation(X, Y, _parse_alphas(args))
    payload = {
        "command": "orders",
        "dist_x": args.dist_x,
        "dist_y": args.dist_y,
        "dispersive": report.holds,
        "witness": report.witness,
        "grid_size": report.grid_size,
        "rows": rows,
    }
    _emit(payload, args)
    return EXIT_OK


def _write_csv_file(path: str, fields: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(row)


def _cmd_chaos(args) -> int:
    wrote = []
    cfg = LogisticConfig(s=4.0, x0=args.x0, burn_in=args.burn_in, length=args.length)
    if args.steps is not None:
        pts = bifurcation_sweep(args.s_min, args.s_max, args.steps, cfg, args.retain)
        path = f"{args.out_dir}/bifurcation.csv"
        _write_csv_file(path, ("s", "value"), pts)
        wrote.append({"file": path, "rows": len(pts)})
    if args.s_list is not None:
        try:
            s_values = [float(tok) for tok in args.s_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad --s-list: {exc}")
        table = efcpe_vs_s(s_values, _parse_alphas(args), cfg)
        path = f"{args.out_dir}/efcpe_vs_s.csv"
        _write_csv_file(
            path, ("s", "alpha", "value"), [(r["s"], r["alpha"], r["value"]) for r in table]
        )
        wrote.append({"file": path, "rows": len(table)})
    if not wrote:
        raise _UsageError("chaos needs --steps (bifurcation) and/or --s-list (measure table)")
    payload = {"command": "chaos", "rows": wrote}
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixture-driven reproduction


def _load_fixture(name: str) -> dict:
    path = resources.files("fracpast").joinpath(f"fixtures/{name}.json")
    with path.open("r") as fh:
        return json.load(fh)


def _compute_cell(op: dict, fixture: dict):
    """Evaluate one fixture cell; returns (value, diverged)."""
    kind = op["kind"]
    alpha = op.get("alpha")
    if kind == "efcpe":
        res = efcpe(parse_spec(op["dist"]), alpha)
        return res.value, res.diverged
    if kind == "efcpe_closed":
        return efcpe_closed_form(parse_spec(op["dist"]), alpha), False
    if kind == "modified_efcpe":
        res = modified_efcpe(parse_spec(op["dist"]), alpha)
        return res.value, res.diverged
    if kind == "sum_efcpe":
        Z = independent_sum(Uniform(1.0), Uniform(1.0))
        res = efcpe(Z, alpha)
        return res.value, res.diverged
    if kind == "max_component":
        res = efcpe(Uniform(1.0), alpha)
        return res.value, res.diverged
    if kind == "sum_cdf":
        return independent_sum(Uniform(1.0), Uniform(1.0)).cdf(op["x"]), False
    if kind == "exp_mean":
        return exp_spacing_moments(op["n"], op["rate"], alpha).mean, False
    if kind == "exp_var":
        return exp_spacing_moments(op["n"], op["rate"], alpha).variance, False
    if kind == "unif_mean":
        return unif_spacing_moments(op["n"], alpha).mean, False
    if kind == "unif_var":
        return unif_spacing_moments(op["n"], alpha).variance, False
    if kind == "empirical":
        return empirical_efcpe(Sample(fixture["data"]), alpha), False
    if kind == "empirical_argmin":
        sample = Sample(fixture["data"])
        grid = [round(0.05 * k, 2) for k in range(1, 21)]
        values = {a: empirical_efcpe(sample, a) for a in grid}
        return min(values, key=values.get), False
    if kind == "omega1":
        return omega_bounds(_parse_system(op["system"]), alpha)[0], False
    if kind == "omega2":
        return omega_bounds(_parse_system(op["system"]), alpha)[1], False
    if kind == "omega2_times_efcpe":
        w2 = omega_bounds(_parse_system(op["system"]), alpha)[1]
        return w2 * efcpe_closed_form(parse_spec(op["dist"]), alpha), False
    if kind == "system_closed":
        return parallel_uniform_closed_form(op["n"], alpha), False
    if kind == "system_quad":
        res = system_efcpe(_parse_system(op["system"]), parse_spec(op["dist"]), alpha)
        return res.value, res.diverged
    if kind == "bivariate":
        res = bivariate_efcpe(_parse_law(op["law"]), alpha)
        return res.value, res.diverged
    if kind == "modified_bivariate":
        res = modified_bivariate_efcpe(_parse_law(op["law"]), alpha)
        return res.value, res.diverged
    raise DomainError(f"unknown fixture op {kind!r}")


def _printed_ulp(printed: str) -> float:
    """One unit in the last printed digit, e.g. '0.19635' -> 1e-5."""
    text = printed.strip().lower()
    mantissa, exponent = (text.split("e") + ["0"])[:2] if "e" in text else (text, "0")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent) - decimals)


def _cell_tolerance(cell: dict) -> float:
    tol = cell.get("tol")
    printed = float(cell["printed"])
    if tol is None:
        return _printed_ulp(cell["printed"]) * (1.0 + 1e-9)
    if "rel" in tol:
        return abs(printed) * tol["rel"]
    return tol["abs"]


def _check_cell(cell: dict, fixture: dict) -> dict:
    status = cell.get("status", "match")
    row = {"id": cell["id"], "status": status}
    try:
        value, diverged = _compute_cell(cell["op"], fixture)
    except (DivergedError, NonConvergentError, MaxSubdivisionsError) as exc:
        value, diverged = None, True
        row["note"] = str(exc)
    row["computed"] = value
    if status == "diverged":
        row["expected"] = cell.get("printed")
        row["ok"] = bool(diverged)
        if not diverged:
            row["note"] = "expected a diverged flag, computation converged"
        return row
    if status == "interval":
        lo, hi = cell["interval"]
        row["expected"] = f"({lo}, {hi})"
        row["ok"] = value is not None and lo < value < hi
        return row
    printed = float(cell["printed"])
    tol = _cell_tolerance(cell)
    row["expected"] = printed
    row["tolerance"] = tol
    if value is None or diverged:
        row["ok"] = False
        row.setdefault("note", "computation diverged")
        return row
    matches = abs(value - printed) <= tol
    if status == "expected_discrepant":
        row["ok"] = not matches
        if matches:
            row["note"] = "cell matched a value recorded as discrepant"
        reference = cell.get("reference")
        if reference is not None and row["ok"]:
            ref_tol = cell.get("reference_tol", 1e-4)
            row["reference"] = reference
            row["ok"] = abs(value - reference) <= ref_tol * max(1.0, abs(reference))
            if not row["ok"]:
                row["note"] = "computed value missed the recorded reference"
        return row
    row["ok"] = matches
    return row


def _cmd_reproduce(args) -> int:
    if (args.table is None) == (args.example is None):
        raise _UsageError("reproduce needs exactly one of --table or --example")
    if args.table is not None:
        name = f"table{args.table}"
    else:
        name = "example" + args.example.replace(".", "")
    fixture = _load_fixture(name)
    rows = [_check_cell(cell, fixture) for cell in fixture["cells"]]
    all_ok = all(row["ok"] for row in rows)
    payload = {
        "command": "reproduce",
        "fixture": name,
        "title": fixture.get("title", ""),
        "all_ok": all_ok,
        "rows": rows,
    }
    if args.format in ("json", "csv"):
        _emit(payload, args)
    else:
        lines = []
        for row in rows:
            verdict = "PASS" if row["ok"] else "FAIL"
            computed = row["computed"]
            shown = "diverged" if computed is None else f"{computed:.10g}"
            lines.append(
                f"{verdict} {row['id']}: computed={shown} expected={row['expected']}"
                f" [{row['status']}]" + (f" ({row['note']})" if "note" in row else "")
            )
        lines.append(f"{'PASS' if all_ok else 'FAIL'} {name}: {sum(r['ok'] for r in rows)}/{len(rows)} cells")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, alphas=True, dist=False, quad=True):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if alphas:
        sub.add_argument("--alpha", type=float, default=None)
        sub.add_argument("--alphas", default=None, help="comma-separated fractional orders")
    if dist:
        sub.add_argument("--dist", required=True, help="distribution spec, e.g. uniform:a=1")
    if quad:
        sub.add_argument("--mode", choices=("approx", "exact"), default="approx")
        sub.add_argument("--abs-tol", type=float, default=None)
        sub.add_argument("--rel-tol", type=float, default=None)
        sub.add_argument("--max-subdiv", type=int, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracpast", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("measure", help="univariate fractional measures")
    p.add_argument(
        "--kind",
        choices=("efcpe", "efcre", "modified", "classic", "paired", "gini"),
        default="efcpe",
    )
    p.add_argument("--past", action="store_true", help="classic kind: integrate the CDF side")
    _add_common(p, dist=True)
    p.set_defaults(fn=_cmd_measure)

    p = verbs.add_parser("empirical", help="spacing estimator on a CSV sample")
    p.add_argument("--file", required=True)
    _add_common(p, quad=False)
    p.set_defaults(fn=_cmd_empirical)

    p = verbs.add_parser("bivariate", help="joint-law measures")
    p.add_argument("--law", required=True, help="triangle, fgm:theta=T, or indep(<spec>,<spec>)")
    p.add_argument("--kind", choices=("efcpe", "modified", "fcpmi"), default="efcpe")
    _add_common(p, quad=False)
    p.set_defaults(fn=_cmd_bivariate)

    p = verbs.add_parser("dynamic", help="truncated-past measure at time t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--decompose", action="store_true")
    _add_common(p, dist=True)
    p.set_defaults(fn=_cmd_dynamic)

    p = verbs.add_parser("coherent", help="system lifetime measure via distortion")
    p.add_argument("--system", required=True, help="parallel:2, series:3, koutofn:k=2,n=4, ...")
    p.add_argument("--bounds", action="store_true", help="include distortion sandwich bounds")
    _add_common(p, dist=True, quad=False)
    p.set_defaults(fn=_cmd_coherent)

    p = verbs.add_parser("orders", help="dispersive order check")
    p.add_argument("--dist-x", required=True)
    p.add_argument("--dist-y", required=True)
    p.add_argument("--grid", type=int, default=4096)
    _add_common(p, quad=False)
    p.set_defaults(fn=_cmd_orders)

    p = verbs.add_parser("chaos", help="logistic-map sweeps to CSV")
    p.add_argument("--s-min", type=float, default=2.5)
    p.add_argument("--s-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--retain", type=int, default=100)
    p.add_argument("--s-list", default=None, help="comma-separated control values")
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--length", type=int, default=5000)
    p.add_argument("--out-dir", default=".")
    _add_common(p, quad=False)
    p.set_defaults(fn=_cmd_chaos)

    p = verbs.add_parser("reproduce", help="check the stored expectation tables")
    p.add_argument("--table", choices=_TABLES, default=None)
    p.add_argument("--example", choices=_EXAMPLES, default=None)
    _add_common(p, alphas=False, quad=False)
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    return args.fn(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, UnsupportedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergedError, NonConvergentError, MaxSubdivisionsError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
