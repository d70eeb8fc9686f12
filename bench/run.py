#!/usr/bin/env python3
"""cmshift benchmark: run one workload, or all four, and print the metrics.

    python3 bench/run.py --workload graph-dp --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                         # all four, one process each
    python3 bench/run.py --trace 1               # per-layer (traced) runs

One workload run is one process with one caller (a closed loop, no extra
threads; BLAS threads are pinned to 1).  It builds the workload's operations
from the seed, measures set-up time in fresh interpreters, makes one warm-up
call, then repeats whole rounds of the operations until `--seconds` have
passed.  Every output of the first round is checked against a computation
made apart from cmshift (bench/checks.py) or a property it must have; every
later round must reproduce the first round's output exactly.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, where metrics are the `end_to_end` metrics of
BENCHMARK.json with `--trace 0` and its `per_layer` metrics with `--trace 1`.
The traced run also writes spans and a per-layer table to bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOAD_NAMES = ("bouquet-deep", "finite-enum", "graph-dp", "preset-sweep")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
# set before numpy is first imported (through cmshift, in run_workload)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Host speed on a shared machine drifts by up to 50% over tens of seconds,
# and process CPU time drifts with it.  Every reported time is therefore
# rescaled to a reference speed: the speed at which one calibration point
# (best of 3 runs of a fixed pure-Python kernel) takes REF_CALIBRATION_S.
# Points are taken around the timed calls, never inside them.
REF_CALIBRATION_S = 0.0025
CALIBRATE_EVERY_S = 0.25

# per-layer self times: metric -> traced function names (layer.function)
SELF_TIME = {
    "thermo.chi_per.self_s": ["thermo.chi_per"],
    "shift.periodic_points.self_s": ["shift.periodic_points"],
    "potential.birkhoff_sum.self_s": ["potential.birkhoff_sum"],
    "infinity.hinf_profile.self_s": ["infinity.hinf_profile"],
    "infinity.delta_profile.self_s": ["infinity.delta_profile"],
    "thermo.partition_sums_transfer.self_s": ["thermo.partition_sums_transfer"],
    "thermo.crc_profile.self_s": ["thermo.crc_profile"],
    "thermo.condition_witness_search.self_s": ["thermo.condition_witness_search"],
    "shift.f_property_count.self_s": ["shift.f_property_count"],
    "thermo.partition_sums_renewal.self_s": ["thermo.partition_sums_renewal"],
    "thermo.closed_forms.self_s": ["thermo.analytic_pressure", "thermo.recurrence_classify",
                                   "thermo.induced_pressure",
                                   "thermo.renewal_pressure_from_power"],
    "thermo.fits.self_s": ["thermo.pressure_estimate", "thermo.spr_check"],
    "numerics.polylog_with_bound.self_s": ["numerics.polylog_with_bound"],
    "numerics.renewal_pressure.self_s": ["numerics.renewal_pressure"],
    "numerics.logsumexp.self_s": ["numerics.logsumexp"],
    "thermo.partition_sums_bruteforce.self_s": ["thermo.partition_sums_bruteforce"],
    "infinity.count_B_bruteforce.self_s": ["infinity.count_B_bruteforce"],
}
CALLS = {
    "potential.birkhoff_sum.calls": ["potential.birkhoff_sum"],
    "numerics.polylog_with_bound.calls": ["numerics.polylog_with_bound"],
    "numerics.logsumexp.calls": ["numerics.logsumexp"],
    "shift.is_admissible.calls": ["shift.is_admissible"],
}
SHARES = {
    "thermo.chi_per.share": ["thermo.chi_per"],
    "infinity.profiles.share": ["infinity.hinf_profile", "infinity.delta_profile"],
    "dp_calls.share": ["infinity.hinf_profile", "infinity.delta_profile",
                       "thermo.partition_sums_transfer", "thermo.crc_profile",
                       "thermo.condition_witness_search", "shift.f_property_count"],
}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _calibration_kernel():
    """Fixed interpreter work of the kinds cmshift does: tuple keys, dict
    lookups, big-int and float arithmetic.  It never calls cmshift."""
    table, acc, x = {}, 0, 0.5
    for i in range(2000):
        key = (i, i & 7)
        table[key] = table.get((i - 1, (i - 1) & 7), 1) * 3 + i
        acc += (table[key] << 40) % 1000003
        x = math.log1p(x) + 0.25
    return acc, x


def calibrate() -> float:
    """One calibration point: the best of 3 kernel runs, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to having imported
    cmshift.cli, i.e. to the point where `cmshift` makes its first call:
    (unscaled, rescaled by the calibration points around each spawn).
    perf_counter is the system-wide monotonic clock, so the child's reading
    compares with the parent's."""
    probe = "import time, cmshift.cli; print(repr(time.perf_counter()))"
    times, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]) - t0)
        cals.append(calibrate())
    raw = statistics.median(times)
    scaled = statistics.median(t * 2 * REF_CALIBRATION_S / (c0 + c1)
                               for t, c0, c1 in zip(times, cals, cals[1:]))
    return raw, scaled


def import_times() -> dict[str, float]:
    """Cumulative import time per top-level package, from
    `python -X importtime -c "import cmshift.cli"` (median of a few runs)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cmshift.cli"],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        runs.append(parse_importtime(res.stderr))
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in runs)
            for pkg in ("scipy", "numpy", "cmshift")}


def parse_importtime(stderr: str) -> dict[str, float]:
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, name.strip().split(".")[0], int(cum) / 1e6))
    # children are printed before their parent: walk backwards (pre-order)
    totals: dict[str, float] = {}
    stack: list[tuple[int, str]] = []
    for level, pkg, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        if not stack or stack[-1][1] != pkg:
            totals[pkg] = totals.get(pkg, 0.0) + cum
        stack.append((level, pkg))
    return totals


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of every operation until `seconds` have passed.

    Returns (round durations, per-round speed factors, per-round span sets,
    attempted, failed, problems, first outputs).  Only operation calls are
    timed; a later round whose output differs from the first round's is a
    problem.  A round's speed factor is REF_CALIBRATION_S over the median of
    the calibration points taken at its start, between its operations (at
    most every CALIBRATE_EVERY_S) and at its end.
    """
    rounds, factors, span_rounds, problems = [], [], [], []
    attempted = failed = 0
    first: dict[str, tuple[object, str]] = {}
    deadline = time.perf_counter() + seconds
    while True:
        durations, cals = [], [calibrate()]
        last_cal = time.perf_counter()
        for op in ops:
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(calibrate())
                last_cal = time.perf_counter()
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op:" + op.name):
                        out = op.run()
                else:
                    out = op.run()
            except Exception as exc:  # an operation that fails is counted, not fatal
                durations.append(time.perf_counter() - t0)
                failed += 1
                print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            durations.append(time.perf_counter() - t0)
            digest = repr(out)
            if op.name not in first:
                first[op.name] = (out, digest)
            elif digest != first[op.name][1]:
                problems.append(f"{op.name}: output differs from the first round")
        cals.append(calibrate())
        rounds.append(durations)
        factors.append(REF_CALIBRATION_S / statistics.median(cals))
        if tracer is not None:
            span_rounds.append(tracer.take())
        if time.perf_counter() >= deadline:
            return rounds, factors, span_rounds, attempted, failed, problems, first


def check_outputs(ops, first) -> list[str]:
    """Run every operation's check on its first output."""
    problems = []
    for op in ops:
        if op.name not in first:
            continue
        try:
            op.check(first[op.name][0])
        except Exception as exc:  # any check that cannot pass marks the run incorrect
            problems.append(f"{op.name}: check: {type(exc).__name__}: {exc}")
    return problems


def layer_metrics(wl, rounds, factors, span_rounds, outdir: Path) -> dict[str, float]:
    """Per-layer metrics of a traced run; times are rescaled like wall_s."""
    from tracer import LAYERS

    per_round = []
    for durations, f, spans in zip(rounds, factors, span_rounds):
        wall = sum(durations)
        selfs, calls = spans.self_times(), spans.calls()
        m = {"trace.wall_s": wall * f}
        for metric, names in SELF_TIME.items():
            m[metric] = f * sum(selfs.get(n, 0.0) for n in names)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = f * sum(v for n, v in selfs.items()
                                           if n.startswith(layer + "."))
        m["cli.calls"] = sum(v for n, v in calls.items() if n.startswith("cli."))
        for metric, names in CALLS.items():
            m[metric] = sum(calls.get(n, 0) for n in names)
        for metric in ("shift.periodic_points.words", "shift.enumerate_words.words",
                       "infinity.grid_cells"):
            m[metric] = spans.work.get(metric, 0)
        for metric, names in SHARES.items():
            m[metric] = spans.inclusive(names) / wall
        for sc in wl.scales:
            ta = spans.inclusive(sc.functions, within="op:" + sc.op_a)
            tb = spans.inclusive(sc.functions, within="op:" + sc.op_b)
            ratio = math.log(tb / ta)
            m[sc.metric] = ratio / (math.log(sc.x_b / sc.x_a) if sc.kind == "loglog"
                                    else sc.x_b - sc.x_a)
        per_round.append(m)
    # a workload without the operation pair behind a scaling figure reports 0
    metrics = {m["name"]: 0.0 for m in bench_spec()["per_layer"]
               if m["name"].startswith("scale.")}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        if isinstance(values[0], int):
            metrics[key] = values[0]  # exact counts: every round repeats them
            if any(v != values[0] for v in values):
                raise RuntimeError(f"count {key} differs between rounds: {values}")
        else:
            metrics[key] = statistics.median(values)
    span_rounds[0].write_csv(outdir / "spans.csv")
    selfs = [s.self_times() for s in span_rounds]
    calls = span_rounds[0].calls()
    with open(outdir / "layers.csv", "w") as fh:
        fh.write("function,calls_per_round,self_s_median_unscaled\n")
        for name in sorted(selfs[0]):
            if not name.startswith("op:"):
                med = statistics.median(s.get(name, 0.0) for s in selfs)
                fh.write(f"{name},{calls[name]},{med:.6f}\n")
    return metrics


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    spec = bench_spec()
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir / "io")
    if len({op.name for op in wl.ops}) != len(wl.ops):
        raise RuntimeError("operation names must be unique: outputs are keyed by them")
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if args.trace:
        metrics.update({f"import.{k}_s": v for k, v in import_times().items()})
    else:
        raw["setup_s"], metrics["setup_s"] = measure_setup()
    try:
        wl.ops[0].run()  # warm-up call
    except Exception:  # the timed rounds count and report a failing operation
        pass
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        rounds, factors, span_rounds, attempted, failed, problems, first = run_rounds(
            wl.ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # read before the checks, whose reference computations are not cmshift's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += check_outputs(wl.ops, first)
    if args.trace:
        metrics.update(layer_metrics(wl, rounds, factors, span_rounds, outdir))
        wanted = spec["per_layer"]
    else:
        metrics["wall_s"] = statistics.median(sum(d) * f for d, f in zip(rounds, factors))
        metrics["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    raw["wall_s"] = statistics.median(sum(d) for d in rounds)
    raw["speed_factor"] = statistics.median(factors)
    ops = {op.name: statistics.median(d[i] * f for d, f in zip(rounds, factors))
           for i, op in enumerate(wl.ops)}
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, t in ops.items():
        print(f"  {t:9.4f} s  {name}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(wl.ops)} "
          f"operations, {failed} failed, {len(problems)} problems; unscaled "
          + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    detail = dict(result, seed=args.seed, rounds=len(rounds), unscaled=raw, op_median_s=ops,
                  problems=problems)
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exited {res.returncode}")
            ok = False
            continue
        result = json.loads(res.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and result["failed"] == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cmshift" / "cli.py").is_file():
        print(f"error: no cmshift sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench_spec()["run_seconds"]
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
