"""The respfd benchmark: one command, four workloads, exact output checks.

    python3 perfbench/run.py --workload jordan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --repeat 10 --out perfbench/baseline.json

Run from the repository root; respfd is imported from ./src.  Set-up times a
fresh interpreter importing respfd (setup_s) and writes the seeded matrix
files; then the workload runs in its own child process as a closed loop with
one client, each op one in-process `respfd.cli.run(argv)` call.  The last
stdout line is one JSON object: with --trace 0 it carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.

`--repeat K` runs each workload K times with seeds SEED..SEED+K-1 and prints
every metric's median and quartiles, flagging end-to-end metrics whose spread
(q3 - q1) / median exceeds the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("jordan", "verify", "spectra", "small")
SETUP_SPAWNS = 9
# Tail percentile per workload: the highest standard percentile with at
# least ten samples beyond it at --seconds 25 on this host.  It stays fixed so
# that runs and commits compare the same statistic; the report prints how
# many samples lie beyond it in each run.
TAIL_PERCENTILE = {"jordan": 90, "verify": 75, "spectra": 75, "small": 99}
# A child that outlives this is stuck between ops; the per-op timeouts
# normally end every op long before.
CHILD_LIMIT_S = 170


def pin_to_one_cpu() -> None:
    """Run this process and its children on the lowest allowed CPU.

    On a shared host the scheduler moves a process between CPUs whose speed
    can differ by 2x (a busy sibling hyperthread); staying on one CPU removes
    that source of run-to-run spread.  Only this process's own affinity mask
    changes.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing respfd and its CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import respfd, respfd.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def format_matrix(rows) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def tail(latencies, percentile: float) -> tuple[float, int]:
    """The given percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(latencies)
    k = min(len(ordered) - 1, int(len(ordered) * percentile / 100))
    return ordered[k], len(ordered) - 1 - k


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = setup_seconds()
    pool = gen.generate(workload, seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, case in pool.cases.items():
            with open(os.path.join(workdir, f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(format_matrix(case.matrix))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, workload, str(seed),
               str(seconds), "1" if trace else "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: worker exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["setup_s"] = setup_s
    return raw


def summarize(workload: str, raw: dict, trace: bool) -> dict:
    lat = raw["scaled_latencies_s"]
    failed = raw["attempted"] - raw["ok"]
    correct = not (raw["wrong"] or raw["nondeterministic"] or raw["replay_mismatch"])
    if trace:
        metrics = raw["layers"]
    else:
        tail_p = TAIL_PERCENTILE[workload]
        tail_s, beyond = tail(lat, tail_p)
        metrics = {
            "ops_per_s": {"value": raw["ok"] / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "ok_frac": {"value": raw["ok"] / raw["attempted"], "unit": "frac"},
            "setup_s": {"value": raw["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        raw["tail_note"] = f"p{tail_p:g} of {len(lat)} ops, {beyond} beyond" + (
            "; fewer than 10 beyond" if beyond < 10 else "")
    print(f"== {workload}: {raw['attempted']} ops in {raw['cycles']} cycles, "
          f"busy {raw['busy_s']:.2f} s")
    for name, m in metrics.items():
        note = f"   [{raw['tail_note']}]" if name == "latency_tail_ms" else ""
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}{note}")
    if not trace:
        print(f"  {'fail_frac':28s} {failed / raw['attempted']:14.6g} frac")
        unscaled = raw["latencies_s"]
        print(f"  host factor {raw['host_factor']:.4g}; unscaled: "
              f"ops_per_s {raw['ok'] / raw['busy_s']:.6g}, "
              f"latency_p50_ms {1000 * statistics.median(unscaled):.6g}, "
              f"latency_tail_ms {1000 * tail(unscaled, tail_p)[0]:.6g}")
    print(f"  output_digest {raw['output_digest']}")
    for name, got in raw["probes"].items():
        print(f"  probe {name:28s} -> {got[0]} {got[1] or ''}")
    for label in ("wrong", "nondeterministic", "replay_mismatch"):
        for item in raw[label]:
            print(f"  {label}: {item}")
    return {"correct": correct, "attempted": raw["attempted"], "failed": failed,
            "metrics": metrics}


def steadiness(args) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
              "commit": _commit(), "seeds": [args.seed + i for i in range(args.repeat)],
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            raw = run_workload(workload, args.seed + i, args.seconds, bool(args.trace))
            runs.append(summarize(workload, raw, bool(args.trace))
                        | {"output_digest": raw["output_digest"]})
        stats = {}
        print(f"== {workload}: steadiness over {args.repeat} seeds")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = "  SPREAD ABOVE BOUND" if spread > bounds.get(name, float("inf")) else ""
            print(f"  {name:20s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f} (bound {bounds.get(name)}){flag}")
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["metrics"][name]["unit"], "values": values}
        record["workloads"][workload] = {
            "metrics": stats,
            "correct": all(r["correct"] for r in runs),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "output_digests": [r["output_digest"] for r in runs],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--out", help="with --repeat: write the report as JSON here")
    args = parser.parse_args()
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(SRC, "respfd", "cli.py")):
        print(f"respfd sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        steadiness(args)
        return 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: summarize(w, run_workload(w, args.seed, args.seconds, bool(args.trace)),
                            bool(args.trace)) for w in workloads}
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
