"""Schema-only smoke check of the benchmark on its smallest setting.

    python3 perfbench/smoke.py

Runs the `small` workload for a fraction of a second, untraced and traced,
and checks that the last stdout line is the result object BENCHMARK.json
promises: exactly the keys correct/attempted/failed/metrics, and every named
metric present with its unit and a numeric value.  It never gates on a
timing.  Exits 0 when the schema holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(result: dict, wanted: list) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        out.append("correct is not a bool")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)):
        out.append("attempted/failed are not whole numbers with attempted >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        out.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            out.append(f"{m['name']}: {got!r} (want unit {m['unit']})")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        cmd = spec["command"] + ["--workload", "small", "--seed", "1", "--seconds", "0.1",
                                 "--trace", trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            failures.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += [f"trace {trace}: {p}" for p in problems(result, wanted)]
    for line in failures:
        print("FAIL", line)
    print("schema ok" if not failures else f"{len(failures)} schema problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
