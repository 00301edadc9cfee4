"""fracpast benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload {cli,sweep,heavy} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. Each
workload is a seeded call list run closed loop by one client on one thread.
The list is run whole, pass after pass, while another pass still fits in
``--seconds``; at least one pass always runs. Every call has a deadline,
enforced with SIGALRM in process or a subprocess timeout for the CLI, and
every outcome is checked against ``oracle.py`` after the timed passes. A
call cut by its deadline in the first pass is not run again: it has failed,
and its time would be the deadline again.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced passes, at least two of each
whatever ``--seconds`` is, checks that both return bit-identical values and
that the traced counts repeat from pass to pass, and writes the aggregated
spans to ``.bench_out/``. The last line of standard output is the result
object; the lines before it list each failing call.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
TRACED_PASSES = 2
# Traced calls run slower; their deadline stretches so that the same calls
# complete in both modes.
TRACE_DEADLINE_FACTOR = 3.0
# In untraced runs a call that took less than half of REPEAT_S in the first
# pass runs several times in a row in each later pass, up to REPEAT_S
# together and at most REPEAT_MAX times, so that its median time rests on
# many samples.
REPEAT_S = 0.2
REPEAT_MAX = 10


# Call and set-up times are reported at the host speed at which host_probe
# takes PROBE_REF_S, its time in a calm period of a shared 2-core x86 host.
# Such a host runs the same code up to 1.8 times slower for minutes at a
# time, so each timing is scaled by PROBE_REF_S over the probe time taken
# around it.
PROBE_REF_S = 0.0001


def _probe_work():
    """A fixed adaptive Simpson integration in pure Python.

    It is made of what the program's own quadrature is made of (closures,
    math calls, a heap of intervals) but shares none of its code, so a change
    to the program leaves it as it is. On the host above, call times moved
    with it one for one (log-log slope 1.03); a tight arithmetic loop moved
    only two-thirds as far as the calls did.
    """
    f = lambda x: math.exp(-x) * math.sin(3.0 * x) + math.log1p(x)
    heap = [(-1.0, 0.0, 2.0)]
    for _ in range(60):
        _, a, b = heapq.heappop(heap)
        m = 0.5 * (a + b)
        fa, fm, fb = f(a), f(m), f(b)
        coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        fine = (b - a) / 12.0 * (fa + 4.0 * f(0.5 * (a + m)) + 2.0 * fm + 4.0 * f(0.5 * (m + b)) + fb)
        err = abs(fine - coarse)
        heapq.heappush(heap, (-err, a, m))
        heapq.heappush(heap, (-err, m, b))


def host_probe():
    """Seconds taken by _probe_work, the best of three runs.

    The best of three leaves out the first run's cold caches after a call.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Deadline(BaseException):
    """Raised by the SIGALRM handler when a call passes its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# set-up time and import breakdown, from fresh interpreters


def _probe_main(workload, seed):
    """Child: cold import plus input generation, printed as seconds."""
    t0 = time.perf_counter()
    import fracpast.cli  # noqa: F401  (the CLI entry imports the whole package)

    workloads.build(workload, seed)
    print(time.perf_counter() - t0)


def _parse_importtime(text):
    """Import time in ms from a ``-X importtime`` log.

    fracpast is the cumulative time of its top-level entries; numpy and
    scipy are the summed self times of their modules, wherever imported, so
    the two never overlap and both lie inside the fracpast figure.
    """
    totals = {"fracpast": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        pkg = name.strip().split(".")[0]
        if pkg == "fracpast" and len(name) - len(name.lstrip()) == 1:
            totals[pkg] += int(cumulative_us) / 1e3
        elif pkg in ("numpy", "scipy"):
            totals[pkg] += int(self_us) / 1e3
    return totals


def measure_setup(workload, seed, trace):
    """Median host-scaled set-up time of fresh interpreters, and the import
    breakdown when tracing.

    Import work moves only about half as far as the host probe, so the
    scaling overshoots. It is scaled all the same: over hours, medians of
    scaled set-up times stayed within 14% of each other, and unscaled ones
    moved by a third.
    """
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed),
        "--seconds", "0"]
    times, imports = [], []
    for _ in range(SETUP_SAMPLES):
        probe = host_probe()
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        probe = 0.5 * (probe + host_probe())
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]) * PROBE_REF_S / probe)
        if trace:
            imports.append(_parse_importtime(out.stderr))
    breakdown = {k: statistics.median(d[k] for d in imports) for k in imports[0]} if imports else {}
    return statistics.median(times), breakdown


# ---------------------------------------------------------------------------
# running calls


def run_in_process(call, factor):
    t0 = time.perf_counter()
    value = None
    try:
        signal.setitimer(signal.ITIMER_REAL, call.deadline * factor)
        try:
            value = call.run()
            kind = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        kind = "deadline"
    except Exception as exc:  # judged against the call's expectation below
        kind, value = "error", exc
    return kind, value, time.perf_counter() - t0


def run_cli(call, factor, trace_file=None):
    env = dict(os.environ, PYTHONPATH="src")
    if trace_file is None:
        cmd = [sys.executable, "-m", "fracpast.cli"] + call.argv
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), trace_file] + call.argv
    t0 = time.perf_counter()
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=call.deadline * factor)
    except subprocess.TimeoutExpired:
        return "deadline", None, time.perf_counter() - t0
    return "ok", (out.returncode, out.stdout), time.perf_counter() - t0


def signature(kind, value):
    if kind == "error":
        return f"{type(value).__name__}: {value}"
    return repr(value)


def judge(call, kind, value):
    """None if the outcome is right, else the reason it is a failure."""
    if kind == "deadline":
        return f"passed its {call.deadline:g} s deadline"
    if call.expect not in ("value", "diverged"):
        if kind == "error" and type(value).__name__ == call.expect:
            return None
        got = f"raised {type(value).__name__}" if kind == "error" else "returned a value"
        return f"{got} where {call.expect} was required"
    if kind == "error":
        from fracpast.errors import FracpastError

        if not isinstance(value, FracpastError):
            return f"untyped {type(value).__name__}: {value}"
        if call.expect == "value":
            # A finite measure has an answer; no refusal stands in for it.
            return f"raised {type(value).__name__}: {value}"
        return None  # a typed refusal of a divergent measure
    return call.check(value)


class Pass:
    def __init__(self):
        self.outcomes = []   # (call index, kind, signature)
        self.durations = []
        self.probes = []     # host-probe time around each duration
        self.wall = 0.0
        self.counts = None
        self.self_ms = None


def run_pass(workload, calls, tracer, factor, out_dir, first_values, skip=(), repeats=None,
             until=None):
    """Run the call list once, or cyclically until ``until`` if given.

    Calls whose index is in ``skip`` are passed over; call i runs
    ``repeats[i]`` times in a row where given.
    """
    p = Pass()
    if tracer is not None:
        tracer.reset()
    t_start = time.perf_counter()
    k = 0
    while (k < len(calls)) if until is None else (time.perf_counter() < until):
        i = k % len(calls)
        call = calls[i]
        k += 1
        if i in skip:
            continue
        n0 = len(p.durations)
        probe = host_probe()
        if workload == "cli":
            trace_file = None
            if tracer is not None:
                trace_file = str(out_dir / f"cli-span-{i}.json")
                if os.path.exists(trace_file):
                    os.remove(trace_file)
            kind, value, dt = run_cli(call, factor, trace_file)
            if trace_file is not None and kind == "ok":
                with open(trace_file) as fh:
                    tracer.merge(json.load(fh))
        else:
            before = tracer.count_snapshot() if tracer is not None else None
            kind, value, dt = run_in_process(call, factor)
            if tracer is not None and kind == "deadline":
                tracer.subtract_counts(before)
        p.outcomes.append((i, kind, signature(kind, value)))
        p.durations.append(dt)
        if first_values is not None and len(first_values) <= i:
            first_values.append((kind, value))
        for _ in range(1, (repeats or {}).get(i, 1)):
            kind, value, dt = run_in_process(call, factor)
            p.outcomes.append((i, kind, signature(kind, value)))
            p.durations.append(dt)
        probe = 0.5 * (probe + host_probe())
        p.probes.extend([probe] * (len(p.durations) - n0))
    p.wall = time.perf_counter() - t_start
    if tracer is not None:
        p.counts = tracer.count_snapshot()
        p.self_ms = tracer.self_ms()
    return p


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n):
    """The highest percentile of n values with ten of them beyond it.

    Below the median there is no tail, so a list of fewer than 21 calls
    reports its plain median.
    """
    return max(50.0, 100.0 * (n - 11) / (n - 1))


def order_statistic(values, pct):
    """The value at percentile pct, interpolating between neighbours."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def harrell_davis_median(values):
    """Harrell-Davis median: the mean of all order statistics, weighted by
    the Beta((n+1)/2, (n+1)/2) law.

    Call costs in one list span four orders of magnitude with gaps between
    them, so the plain median of a few dozen calls jumps across a gap when
    one call changes rank; this estimate moves smoothly instead.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a = b = 0.5 * (n + 1)
    cdf = [float(betainc(a, b, k / n)) for k in range(n + 1)]
    return math.fsum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(xs))


def layer_metrics(p, self_ms_median, imports, overhead):
    c = p.counts
    g = lambda name: c.get(name, 0)
    ms = lambda name: self_ms_median.get(name, 0.0)
    group = lambda prefix, table: sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))
    integrals = g("quadrature.integrate")
    frac_logs = g("fraclog.frac_log")
    m = {
        "import.fracpast_ms": imports.get("fracpast", 0.0),
        "import.scipy_ms": imports.get("scipy", 0.0),
        "import.numpy_ms": imports.get("numpy", 0.0),
        "cli.main.self_ms": ms("cli.main"),
        "fraclog.as_order.calls": g("fraclog.as_order"),
        "fraclog.log_kernel.calls": g("fraclog.log_kernel"),
        "fraclog.log_kernel.self_ms": ms("fraclog.log_kernel"),
        "fraclog.frac_log.calls": frac_logs,
        "fraclog.frac_log.self_ms": ms("fraclog.frac_log"),
        "fraclog.mlf.calls": g("fraclog.mlf"),
        "fraclog.mlf.self_ms": ms("fraclog.mlf"),
        "fraclog.mlf_per_frac_log": g("fraclog.mlf") / frac_logs if frac_logs else 0.0,
        "fraclog.errors": g("fraclog_errors"),
    }
    for cls in ("DomainError", "NonConvergentError", "MaxSubdivisionsError", "OverflowError", "other"):
        m[f"fraclog.errors.{cls}"] = g(f"fraclog_errors.{cls}")
    for meth in ("cdf", "survival", "quantile", "pdf"):
        m[f"distributions.{meth}.calls"] = g(f"distributions.{meth}")
        m[f"distributions.{meth}.self_ms"] = ms(f"distributions.{meth}")
    m.update({
        "quadrature.integrate.calls": integrals,
        "quadrature.integrate.self_ms": ms("quadrature.integrate"),
        "quadrature.integrand_evals": g("integrand_evals"),
        "quadrature.evals_per_integral": g("integrand_evals") / integrals if integrals else 0.0,
        "quadrature.subdivisions": g("subdivisions"),
        "quadrature.detect_divergence.calls": g("quadrature.detect_divergence"),
        "quadrature.diverged_verdicts": g("diverged_verdicts"),
        "quadrature.max_subdivision_errors": g("max_subdivision_errors"),
        "quadrature.integrate_2d.calls": g("quadrature.integrate_2d"),
        "quadrature.integrate_2d.self_ms": ms("quadrature.integrate_2d"),
        # The outer integral of each 2-D call is counted with the inner ones.
        "quadrature.inner_integrals": g("inner_integrals") - g("quadrature.integrate_2d"),
        "entropy.calls": group("entropy", c),
        "entropy.self_ms": group("entropy", self_ms_median),
        "coherent.self_ms": group("coherent", self_ms_median),
        "orders.self_ms": group("orders", self_ms_median),
        "empirical.self_ms": group("empirical", self_ms_median),
        "empirical.values_processed": g("values_processed"),
        "chaos.self_ms": group("chaos", self_ms_median),
        "multivariate.calls": group("multivariate", c),
        "multivariate.self_ms": group("multivariate", self_ms_median),
        "trace.overhead_frac": overhead,
    })
    return m


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name in ("fraclog.mlf_per_frac_log", "quadrature.evals_per_integral"):
        return "ratio"
    if name == "trace.overhead_frac":
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fracpast" / "__init__.py").is_file():
        print(f"error: no fracpast sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.probe_setup:
        _probe_main(args.workload, args.seed)
        return 0

    out_dir = root / workloads.OUT_DIR
    (out_dir / "chaos").mkdir(parents=True, exist_ok=True)
    import fracpast  # noqa: F401  (compiles bytecode before the set-up probes)

    setup_s, imports = measure_setup(args.workload, args.seed, bool(args.trace))
    calls = workloads.build(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(harness_exceptions=(Deadline,))
    first_values = []
    plain, traced, fill = [], [], []
    skip, repeats = set(), {}
    t_begin = time.perf_counter()
    while True:
        plain.append(run_pass(args.workload, calls, None, 1.0, out_dir, first_values, skip, repeats))
        skip = {i for i, kind, _ in plain[0].outcomes if kind == "deadline"}
        if tracer is None and args.workload != "cli":
            repeats = {i: min(REPEAT_MAX, int(REPEAT_S / d))
                       for (i, _, _), d in zip(plain[0].outcomes, plain[0].durations) if d < REPEAT_S / 2}
        if tracer is not None:
            if args.workload != "cli":
                tracer.install()
            try:
                traced.append(run_pass(args.workload, calls, tracer, TRACE_DEADLINE_FACTOR, out_dir, None, skip))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - t_begin
        if tracer is not None and len(traced) < TRACED_PASSES:
            continue
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    if tracer is None:
        # The rest of the time adds call samples.
        fill.append(run_pass(args.workload, calls, None, 1.0, out_dir, None, skip, repeats,
                             t_begin + args.seconds))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if args.workload == "cli" else 0)

    import warnings

    # The reference quadratures warn on roundoff they recover from.
    warnings.simplefilter("ignore")
    correct = True
    reasons = []
    for i, call in enumerate(calls):
        kind, value = first_values[i]
        try:
            reasons.append(judge(call, kind, value))
        except Exception as exc:  # the oracle failed: the call is unverified
            correct = False
            reasons.append(f"no reference: {type(exc).__name__}: {exc}")

    # Every pass must repeat the first pass's outcome of each call, so each
    # call is judged once: it fails if its first outcome is wrong or if it
    # passed its deadline in any pass. Further passes only add timings.
    base = {i: (kind, sig) for i, kind, sig in plain[0].outcomes}
    timeouts = set()
    for p in plain + traced + fill:
        for i, kind, sig in p.outcomes:
            if kind == "deadline" or base[i][0] == "deadline":
                timeouts.add(i)
            elif sig != base[i][1]:
                correct = False
                print(f"NONDETERMINISTIC {calls[i].label}: {sig[:200]} != {base[i][1][:200]}")
    for i, reason in enumerate(reasons):
        if reason is not None:
            print(f"FAIL {calls[i].label}: {reason}")
        elif i in timeouts:
            print(f"FAIL {calls[i].label}: passed its deadline in some pass")
    attempted = len(calls)
    failed = sum(reason is not None or i in timeouts for i, reason in enumerate(reasons))

    if tracer is not None:
        # Counts of calls cut by a deadline are taken back, so every traced
        # pass must report the same counts.
        for p in traced[1:]:
            if p.counts != traced[0].counts:
                correct = False
                diff = {k: (traced[0].counts.get(k), v) for k, v in p.counts.items() if traced[0].counts.get(k) != v}
                print(f"COUNTS DIFFER between traced passes: {diff}")
        self_med = {k: statistics.median(p.self_ms.get(k, 0.0) for p in traced) for k in traced[0].self_ms}

        # Deadlines stretch in traced passes, so calls cut in either mode
        # would weigh the stretch rather than the tracer.
        def completed_s(p):
            return sum(d for (i, _, _), d in zip(p.outcomes, p.durations) if i not in timeouts)
        overhead = (statistics.median(completed_s(p) for p in traced)
                    / statistics.median(completed_s(p) for p in plain) - 1.0)
        metrics = layer_metrics(traced[0], self_med, imports, overhead)
        metrics["trace.deadline_calls"] = sum(k == "deadline" for _, k, _ in traced[0].outcomes)
        with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "spans": tracer.dump() if args.workload != "cli" else None,
                       "traced_passes": len(traced), "calls": [c.label for c in calls]}, fh, indent=1)
        out_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
              f"passes of {len(calls)} calls, {failed}/{attempted} calls failed")
    else:
        # A call's time is the median over the run of its host-scaled
        # samples. A deadline is wall time and is not scaled.
        scaled = {}
        for p in plain + fill:
            for (i, kind, _), d, probe in zip(p.outcomes, p.durations, p.probes):
                scaled.setdefault(i, []).append(d if kind == "deadline" else d * PROBE_REF_S / probe)
        times = [statistics.median(v) for v in scaled.values()]
        tail = tail_percentile(len(times))
        probes = [probe for p in plain + fill for probe in p.probes]
        out_metrics = {
            "wall_s": {"value": math.fsum(times), "unit": "s"},
            "call_p50_ms": {"value": 1e3 * harrell_davis_median(times), "unit": "ms"},
            "call_tail_ms": {"value": 1e3 * order_statistic(times, tail), "unit": "ms"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"# {args.workload} seed {args.seed}: {len(plain)} passes and {len(fill[0].outcomes)} "
              f"more call runs over {len(calls)} calls, tail percentile p{tail:.4g}, host probe "
              f"median {1e3 * statistics.median(probes):.4f} ms (reference {1e3 * PROBE_REF_S:g} ms), "
              f"{failed}/{attempted} calls failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
