"""One workload in its own process: a closed loop with one client.

    python perfbench/worker.py WORKDIR WORKLOAD SEED SECONDS TRACE

Runs the workload's cycles of ops (in-process `respfd.cli.run(argv)` calls on
the matrix files in WORKDIR) one after another, ending on a cycle boundary
once the ops have been busy for SECONDS and at least MIN_CYCLES cycles ran.
Every cycle holds one op per stratum, so the op mix of a run does not depend
on where the clock ran out.  output_digest covers the first MIN_CYCLES
cycles, which every run executes.
Prints one JSON object with the raw results on its last stdout line.

With TRACE = 1 every op runs twice, untraced and then with spans recorded
around respfd's public functions; both must print the same stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import respfd.cli  # noqa: E402

import gen  # noqa: E402
from check import check  # noqa: E402
from exact import matmul  # noqa: E402
from timeouts import Deadline, OpTimeout  # noqa: E402


# On a shared host the speed of a CPU drifts by up to 2x over minutes, with
# neighbours' load.  About every REF_EVERY_S of op time the loop times a fixed
# pure-Python Fraction computation (benchmark code, the same on every commit);
# the end-to-end times are the op times scaled by REF_NOMINAL_S over the
# run's median reference time.  They read as on a host where the reference
# takes REF_NOMINAL_S: host drift cancels, a change in respfd shows in full.
REF_NOMINAL_S = 0.006
REF_EVERY_S = 0.5
_REF_RNG = random.Random(5)
_REF_MATRIX = [[Fraction(_REF_RNG.randint(-50, 50), _REF_RNG.randint(1, 9)) for _ in range(8)]
               for _ in range(8)]


def host_reference() -> float:
    """Seconds of the reference computation, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = _REF_MATRIX
        for _ in range(3):
            x = matmul(x, _REF_MATRIX)
        best = min(best, time.perf_counter() - t0)
    return best


def outcome(code: int, err: str) -> tuple:
    """(exit code, error name) of a cli.run result."""
    if code == 0:
        return (0, None)
    if code == 1 and err.count(": ") >= 2:
        return (1, err.split(": ")[1])
    if code == 2 and err:
        return (2, err.split(":")[0])
    return (code, "argparse" if code == 2 else err.strip() or None)


def run_op(argv, timeout: float) -> tuple:
    """(seconds, outcome, stdout) of one cli.run call; never raises."""
    t0 = time.perf_counter()
    try:
        with Deadline(timeout):
            code, out, err = respfd.cli.run(argv)
        result = (outcome(code, err), out)
    except OpTimeout:
        result = (("timeout", None), "")
    except Exception as exc:  # an escaping exception is a failed op, never a crash
        result = (("exception", type(exc).__name__), "")
    return (time.perf_counter() - t0,) + result


def main(argv) -> int:
    workdir, workload, seed, seconds, trace = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    if not os.path.dirname(os.path.abspath(respfd.cli.__file__)).startswith(SRC):
        print(f"respfd imported from {respfd.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = gen.generate(workload, seed)
    paths = {name: os.path.join(workdir, f"{name}.txt") for name in w.cases}

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()

    latencies, timed_out, refs, attempted, ok = [], [], [], 0, 0
    next_ref = 0.0
    busy = traced_s = untraced_s = 0.0
    first = {}  # op name -> (outcome, stdout sha256, verdict)
    json_out = {}  # sibling key -> stdout of the checked JSON rendering
    wrong, nondeterministic, replay_mismatch = [], [], []
    digest = hashlib.sha256()
    cycles = 0
    while cycles < gen.MIN_CYCLES[workload] or busy < seconds:
        first_pass = cycles < len(w.cycles)
        in_digest = cycles < gen.MIN_CYCLES[workload]
        for op in w.cycles[cycles % len(w.cycles)]:
            args = op.argv(paths[op.case])
            if busy >= next_ref:
                refs.append(host_reference())
                next_ref = busy + REF_EVERY_S
            dt, got, out = run_op(args, op.timeout)
            busy += dt
            attempted += 1
            latencies.append(dt)
            timed_out.append(got[0] == "timeout")
            if tracer is not None:
                untraced_s += dt
                tracer.measure_sizes = first_pass
                tracer.op = attempted
                tracer.sizing_s = 0.0
                factor_before = tracer.sizes["polynomials.factor_calls"]
                tracer.install()
                root = tracer.begin("op")
                try:
                    tdt, tgot, tout = run_op(args, op.timeout)
                finally:
                    tracer.end(root)
                    tracer.uninstall()
                    tracer.close_open()
                traced_s += tdt - tracer.sizing_s
                busy += tdt
                tracer.count("ops")
                if tracer.sizes["polynomials.factor_calls"] > factor_before:
                    tracer.count("polynomials.factor_ops")
                if (tgot, tout) != (got, out) and "timeout" not in (got[0], tgot[0]):
                    replay_mismatch.append(op.name)
            sha = hashlib.sha256(out.encode()).hexdigest()
            if in_digest:
                digest.update(f"{op.name}\0{got[0]}\0{sha}\n".encode())
            if op.name not in first:
                verdict = None
                if got == tuple(op.expect) and got[0] == 0:
                    verdict = check(op, w.cases[op.case], out, json_out.get(op.sibling))
                    if verdict is None and op.fmt == "json":
                        json_out[op.sibling] = out
                    if verdict is not None:
                        wrong.append(f"{op.name}: {verdict}")
                first[op.name] = (got, sha, verdict)
            elif first[op.name][:2] != (got, sha) and "timeout" not in (got[0], first[op.name][0][0]):
                nondeterministic.append(op.name)
            if got == tuple(op.expect) and first[op.name][2] is None:
                ok += 1
        cycles += 1

    # a timeout is a wall-clock limit, not work at host speed: it is not scaled
    factor = statistics.median(refs) / REF_NOMINAL_S
    result = {
        "attempted": attempted,
        "ok": ok,
        "busy_s": busy - traced_s if tracer else busy,
        "latencies_s": latencies,
        "scaled_latencies_s": [dt if hung else dt / factor for dt, hung in zip(latencies, timed_out)],
        "host_factor": factor,
        "cycles": cycles,
        "wrong": wrong,
        "nondeterministic": sorted(set(nondeterministic)),
        "replay_mismatch": sorted(set(replay_mismatch)),
        "output_digest": digest.hexdigest(),
        "outcomes": {name: list(v[0]) for name, v in first.items()},
        "probes": {op.probe: list(first[op.name][0]) for op in w.cycles[0] if op.probe},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, attempted, traced_s, untraced_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
