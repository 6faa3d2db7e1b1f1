#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sdss --seeds 1-10
    python3 perfbench/spread.py --workload sqlshare --seeds 11-15 --trace 1

Run it from the repository root. For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median``, beside the metric's bound in
``BENCHMARK.json`` and whether the spread is under a third of it. Each
run's result line is appended to ``--log`` when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--log", help="append each run's result line here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        line = out.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    print(f"| {args.workload} metric | unit | median | q1 | q3 | spread | bound | < bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{spread:.3f} | {bound if bound is not None else '-'} | {ok} |")


if __name__ == "__main__":
    main()
