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
import json
import math
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

# Each verb imports the modules it uses where it uses them, so a call loads
# only those: the package's start-up is paid by every call.
from .errors import (
    DivergedError,
    DomainError,
    MaxSubdivisionsError,
    NonConvergentError,
    UnsupportedError,
)

if TYPE_CHECKING:
    from .coherent import DistortionFunction
    from .multivariate import BivariateLaw

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


def _float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad {flag} list: {exc}")
    if not values:
        raise _UsageError(f"{flag} list is empty")
    return values


def _parse_alphas(args) -> List[float]:
    if args.alphas is None:
        raise _UsageError("--alphas (or --alpha) is required")
    return _float_list(args.alphas, "--alphas")


def _jsonable(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _rows_to_csv(payload: dict) -> str:
    import csv
    import io

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


def _emit(payload: dict, args, text: Optional[str] = None) -> None:
    """Write text, or else the payload as JSON or CSV, to --out or stdout."""
    if text is None and args.format == "csv":
        text = _rows_to_csv(_jsonable(payload))
    elif text is None:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_rows(args, payload: dict, compute) -> int:
    """Emit payload with one row per requested order; EXIT_NUMERIC if any diverged.

    ``compute(alpha)`` returns ``(result, row)``, with result None when the
    row carries a bare float, as fcpmi's and the spacing estimator's do.
    """
    results = [compute(alpha) for alpha in _parse_alphas(args)]
    payload["rows"] = [row for _, row in results]
    _emit(payload, args)
    diverged = any(res is not None and res.diverged for res, _ in results)
    return EXIT_NUMERIC if diverged else EXIT_OK


def _parse_law(spec: str) -> BivariateLaw:
    """``triangle``, ``fgm:theta=T`` or ``indep(<spec>,<spec>)``."""
    from .distributions import _build, _read_spec, parse_spec
    from .multivariate import fgm_law, independent_law, triangle_law

    laws = {"triangle": triangle_law, "fgm": fgm_law, "indep": independent_law}
    name, inner, params = _read_spec(spec)
    return _build(laws, "bivariate law", name, *map(parse_spec, inner), **params)


def _parse_system(spec: str) -> DistortionFunction:
    """``parallel:N`` (short for ``parallel:n=N``), ``koutofn:k=K,n=N``, ..."""
    from .coherent import distortion
    from .distributions import _read_spec

    s = spec.strip().lower()
    kind, colon, body = s.partition(":")
    if colon and "=" not in body:
        s = f"{kind}:n={body}"
    name, inner, params = _read_spec(s, int)
    if inner:
        raise DomainError(f"a system spec takes no inner spec: {spec!r}")
    return distortion(name, **params)


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_measure(args) -> int:
    from .distributions import parse_spec
    from .entropy import classic_fractional, efcpe, efcre, gini, modified_efcpe, paired_phi_entropy
    from .fraclog import LogMode

    if args.mode == "exact" and args.kind not in ("efcpe", "efcre", "paired"):
        raise _UsageError(f"--mode exact applies to --kind efcpe, efcre and paired, "
                          f"not {args.kind}")
    X = parse_spec(args.dist)
    mode = LogMode(args.mode)
    measures = {
        "efcpe": lambda alpha: efcpe(X, alpha, mode),
        "efcre": lambda alpha: efcre(X, alpha, mode),
        "modified": lambda alpha: modified_efcpe(X, alpha),
        "classic": lambda alpha: classic_fractional(X, alpha, past=args.past),
        "paired": lambda alpha: paired_phi_entropy(X, alpha, mode),
    }

    def compute(alpha):
        res = measures[args.kind](alpha)
        return res, res.record(X)

    payload = {"command": "measure", "kind": args.kind, "dist": args.dist}
    if args.kind == "gini":
        payload["rows"] = [{"value": gini(X)}]
        _emit(payload, args)
        return EXIT_OK
    return _record_rows(args, payload, compute)


def _cmd_empirical(args) -> int:
    from .empirical import empirical_efcpe, load_sample_csv

    sample = load_sample_csv(args.file)

    def compute(alpha):
        return None, {"alpha": alpha, "n": sample.n, "value": empirical_efcpe(sample, alpha)}

    return _record_rows(args, {"command": "empirical", "file": args.file}, compute)


def _cmd_bivariate(args) -> int:
    from .multivariate import bivariate_efcpe, fcpmi, modified_bivariate_efcpe

    law = _parse_law(args.law)

    def compute(alpha):
        if args.kind == "fcpmi":
            return None, {"alpha": alpha, "kind": "fcpmi", "value": fcpmi(law, alpha)}
        if args.kind == "modified":
            res = modified_bivariate_efcpe(law, alpha)
        else:
            res = bivariate_efcpe(law, alpha)
        rec = res.record()
        rec["law"] = law.label
        return res, rec

    return _record_rows(args, {"command": "bivariate", "law": args.law, "kind": args.kind}, compute)


def _cmd_dynamic(args) -> int:
    from .distributions import parse_spec
    from .entropy import _dynamic_boundary, dynamic_efcpe
    from .fraclog import LogMode

    X = parse_spec(args.dist)
    mode = LogMode(args.mode)

    def compute(alpha):
        res = dynamic_efcpe(X, alpha, args.t, mode)
        rec = res.record(X)
        rec["t"] = args.t
        if args.decompose:
            # The integral term complements the value, which is computed once.
            boundary_term = _dynamic_boundary(X, alpha, args.t, mode)
            rec["integral_term"] = res.value - boundary_term
            rec["boundary_term"] = boundary_term
        return res, rec

    return _record_rows(args, {"command": "dynamic", "dist": args.dist, "t": args.t}, compute)


def _cmd_coherent(args) -> int:
    from .coherent import sandwich_check, system_efcpe
    from .distributions import parse_spec

    q = _parse_system(args.system)
    X = parse_spec(args.dist)

    def compute(alpha):
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
        return res, rec

    payload = {"command": "coherent", "system": args.system, "dist": args.dist}
    return _record_rows(args, payload, compute)


def _cmd_orders(args) -> int:
    from .distributions import parse_spec
    from .orders import _ordering_rows, dispersive_check

    X = parse_spec(args.dist_x)
    Y = parse_spec(args.dist_y)
    report = dispersive_check(X, Y)
    rows = []
    if args.alphas is not None and report.holds == "Yes":
        rows = _ordering_rows(X, Y, _parse_alphas(args))
    payload = {
        "command": "orders",
        "dist_x": args.dist_x,
        "dist_y": args.dist_y,
        "dispersive": report.holds,
        "witness": report.witness,
        "rows": rows,
    }
    _emit(payload, args)
    return EXIT_OK


def _write_csv_file(path: str, fields: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(row)


def _cmd_chaos(args) -> int:
    from .chaos import LogisticConfig, bifurcation_sweep, efcpe_vs_s

    wrote = []
    cfg = LogisticConfig(s=4.0, x0=args.x0, burn_in=args.burn_in, length=args.length)
    if args.steps is not None:
        pts = bifurcation_sweep(args.s_min, args.s_max, args.steps, cfg, args.retain)
        path = f"{args.out_dir}/bifurcation.csv"
        _write_csv_file(path, ("s", "value"), pts)
        wrote.append({"file": path, "rows": len(pts)})
    if args.s_list is not None:
        table = efcpe_vs_s(_float_list(args.s_list, "--s-list"), _parse_alphas(args), cfg)
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
    from importlib import resources

    path = resources.files("fracpast").joinpath(f"fixtures/{name}.json")
    with path.open("r") as fh:
        return json.load(fh)


def _compute_cell(op: dict, fixture: dict):
    """Evaluate one fixture cell: an EntropyResult, or a float that cannot diverge.

    The spacing-moment and sample cells run without the laws or the quadrature.
    """
    kind = op["kind"]
    alpha = op.get("alpha")
    if kind in ("exp_mean", "exp_var", "unif_mean", "unif_var"):
        from .empirical import exp_spacing_moments, unif_spacing_moments

        if kind.startswith("exp_"):
            moments = exp_spacing_moments(op["n"], op["rate"], alpha)
        else:
            moments = unif_spacing_moments(op["n"], alpha)
        return moments.mean if kind.endswith("_mean") else moments.variance
    if kind in ("empirical", "empirical_argmin"):
        from .empirical import Sample, empirical_efcpe

        sample = Sample(fixture["data"])
        if kind == "empirical":
            return empirical_efcpe(sample, alpha)
        grid = [round(0.05 * k, 2) for k in range(1, 21)]
        values = {a: empirical_efcpe(sample, a) for a in grid}
        return min(values, key=values.get)
    if kind == "modified_bivariate":
        from .multivariate import modified_bivariate_efcpe

        return modified_bivariate_efcpe(_parse_law(op["law"]), alpha)
    from .distributions import Uniform, independent_sum, parse_spec
    from .entropy import efcpe, efcpe_closed_form, modified_efcpe

    if kind == "efcpe":
        return efcpe(parse_spec(op["dist"]), alpha)
    if kind == "efcpe_closed":
        return efcpe_closed_form(parse_spec(op["dist"]), alpha)
    if kind == "modified_efcpe":
        return modified_efcpe(parse_spec(op["dist"]), alpha)
    if kind == "sum_efcpe":
        Z = independent_sum(Uniform(1.0), Uniform(1.0))
        return efcpe(Z, alpha)
    if kind == "max_component":
        return efcpe(Uniform(1.0), alpha)
    if kind == "sum_cdf":
        return independent_sum(Uniform(1.0), Uniform(1.0)).cdf(op["x"])
    from .coherent import omega_bounds, parallel_uniform_closed_form, system_efcpe

    if kind == "omega1":
        return omega_bounds(_parse_system(op["system"]), alpha)[0]
    if kind == "omega2":
        return omega_bounds(_parse_system(op["system"]), alpha)[1]
    if kind == "omega2_times_efcpe":
        w2 = omega_bounds(_parse_system(op["system"]), alpha)[1]
        return w2 * efcpe_closed_form(parse_spec(op["dist"]), alpha)
    if kind == "system_closed":
        return parallel_uniform_closed_form(op["n"], alpha)
    if kind == "system_quad":
        return system_efcpe(_parse_system(op["system"]), parse_spec(op["dist"]), alpha)
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
        res = _compute_cell(cell["op"], fixture)
        value, diverged = getattr(res, "value", res), getattr(res, "diverged", False)
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
    text = None
    if args.format == "text":
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
    _emit(payload, args, text)
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, alphas=True, dist=False, mode=True, formats=("json", "csv")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if alphas:
        sub.add_argument("--alphas", "--alpha", default=None,
                         help="comma-separated fractional orders; --alpha is another spelling")
    if dist:
        sub.add_argument("--dist", required=True, help="distribution spec, e.g. uniform:a=1")
    if mode:
        sub.add_argument("--mode", choices=("approx", "exact"), default="approx")


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
    _add_common(p, mode=False)
    p.set_defaults(fn=_cmd_empirical)

    p = verbs.add_parser("bivariate", help="joint-law measures")
    p.add_argument("--law", required=True, help="triangle, fgm:theta=T, or indep(<spec>,<spec>)")
    p.add_argument("--kind", choices=("efcpe", "modified", "fcpmi"), default="efcpe")
    _add_common(p, mode=False)
    p.set_defaults(fn=_cmd_bivariate)

    p = verbs.add_parser("dynamic", help="truncated-past measure at time t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--decompose", action="store_true")
    _add_common(p, dist=True)
    p.set_defaults(fn=_cmd_dynamic)

    p = verbs.add_parser("coherent", help="system lifetime measure via distortion")
    p.add_argument("--system", required=True, help="parallel:2, series:3, koutofn:k=2,n=4, ...")
    p.add_argument("--bounds", action="store_true", help="include distortion sandwich bounds")
    _add_common(p, dist=True, mode=False)
    p.set_defaults(fn=_cmd_coherent)

    p = verbs.add_parser("orders", help="dispersive order check")
    p.add_argument("--dist-x", required=True)
    p.add_argument("--dist-y", required=True)
    _add_common(p, mode=False)
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
    _add_common(p, mode=False)
    p.set_defaults(fn=_cmd_chaos)

    p = verbs.add_parser("reproduce", help="check the stored expectation tables")
    p.add_argument("--table", choices=_TABLES, default=None)
    p.add_argument("--example", choices=_EXAMPLES, default=None)
    _add_common(p, alphas=False, mode=False, formats=("json", "csv", "text"))
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
