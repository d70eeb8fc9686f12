#!/usr/bin/env python3
"""Steadiness check for the cmshift benchmark.

    python3 bench/steady.py --runs 10 --seed0 200

Runs every workload `--runs` times with seeds seed0, seed0+1, ..., at the
`run_seconds` of BENCHMARK.json, alternating the workload order between
passes, each run in its own process (`bench/run.py --trace 0`).  For each
end-to-end metric it prints the median, the quartiles and the spread
(interquartile range over median) of all runs, then splits the runs into two
halves and says whether they agree within the bound BENCHMARK.json gives the
metric: each half's spread within the bound (set-up time excepted), the two
halves' medians apart by no more than the bound in either direction, and the
same share of failed operations in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT, WORKLOAD_NAMES, bench_spec  # noqa: E402


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args(argv)
    spec = bench_spec()
    seconds = spec["run_seconds"]
    names = WORKLOAD_NAMES
    results: dict[str, list[dict]] = {n: [] for n in names}
    for r in range(args.runs):
        for name in (names if r % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed0 + r), "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                sys.stderr.write(res.stderr)
                print(f"{name} run {r}: exited {res.returncode}")
                return 1
            out = json.loads(res.stdout.strip().splitlines()[-1])
            results[name].append(out)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"run {r} {name}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']} {vals}", flush=True)
    ok = True
    half = args.runs // 2
    print()
    print(f"{'workload':13s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'halves':>7s} {'bound':>6s}")
    for name in names:
        runs = results[name]
        shares = [r["failed"] / r["attempted"] for r in runs]
        if len(set(shares[:half])) != 1 or set(shares[:half]) != set(shares[half:]):
            print(f"{name}: failed share differs between runs: {shares}")
            ok = False
        if not all(r["correct"] for r in runs):
            print(f"{name}: some runs were not correct")
            ok = False
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            a, b = values[:half], values[half:]
            # signed change of the second half's median, + when it got worse
            drift = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            drift = drift if m["better"] == "lower" else -drift
            agree = abs(drift) <= m["bound"]
            if m["name"] != "setup_s":
                agree = agree and spread(a)[3] <= m["bound"] and spread(b)[3] <= m["bound"]
            ok &= agree
            print(f"{name:13s} {m['name']:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{sp:7.3f} {drift:7.3f} {m['bound']:6.2f} {'ok' if agree else 'DISAGREE'}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    print("halves agree within bounds" if ok else "halves DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
