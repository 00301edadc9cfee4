"""Run the benchmark on two source trees in alternating pairs and summarise.

    python scripts/bench_pair.py --parent DIR --change DIR --workload cli \
        --seeds 401-410 --seconds 30 [--trace 1] --out BENCH_label.json

Each tree is a checkout of the repository (``src/``, ``perfbench/``,
``data/``); ``perfbench/run.py`` runs with the tree as its working
directory, so both sides run their own, identical, benchmark code. Pair i
runs the parent first when i is even and the change first when i is odd.
The summary gives, per metric, each side's median and quartiles and the
number of pairs the change won (ties count for neither side); "better"
comes from ``BENCHMARK.json``. Results for one workload and trace setting
are stored in ``--out`` under the key ``<workload>`` or
``<workload>.trace``, so one file can hold several workloads; a later run
with the same key adds its pairs to those already stored there.

Each key also records whether the runs could cache bytecode: the children
inherit this process's environment, and with ``PYTHONDONTWRITEBYTECODE`` set
every fresh CLI process compiles each module it imports, about 30 ms of a
75 ms ``cli`` call. A run is refused before it starts if its key holds pairs
recorded with the other setting, or with none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{tree}: exit {out.returncode}: {out.stderr.strip()[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] if isinstance(v, dict) else v for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: list, better: dict) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        p = [pair["parent"]["metrics"][name] for pair in pairs]
        c = [pair["change"]["metrics"][name] for pair in pairs]
        entry = {"parent": quartiles(p), "change": quartiles(c)}
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            entry["better"] = better[name]
            entry["change_wins"] = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
        summary[name] = entry
    summary["failed"] = {"parent": [pair["parent"]["failed"] for pair in pairs],
                         "change": [pair["change"]["failed"] for pair in pairs],
                         "attempted": pairs[0]["parent"]["attempted"]}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 401-410 or 401,405")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = args.workload + (".trace" if args.trace else "")
    stored = doc.get(key, {"pairs": []})
    cache = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    if stored["pairs"] and stored.get("bytecode_cache") != cache:
        ap.error(f"{args.out} key {key!r} holds pairs with bytecode_cache="
                 f"{stored.get('bytecode_cache')}; this run has bytecode_cache={cache}")
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds, args.trace)
            print(f"seed {seed} {side}: failed {pair[side]['failed']}/{pair[side]['attempted']} "
                  f"wall_s {pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
        pairs.append(pair)

    pairs = stored["pairs"] + pairs
    doc[key] = {"seconds": args.seconds, "trace": args.trace, "bytecode_cache": cache,
                "summary": summarise(pairs, better), "pairs": pairs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
