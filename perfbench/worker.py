"""One benchmark process: build a workload's inputs, run its ops, report.

Started by ``run.py``.  It imports the package, builds the inputs, and
prints ``ready`` with the set-up time, timed from before the package import
and scaled to the reference speed (see clock.py).  Then it runs one warm-up
cycle on separate inputs and the ops one at a time (a closed loop with one
caller), and prints one JSON line with the latency percentiles, throughput
and failure count.  With ``--setup-only`` it stops at ``ready``; with
``--trace 1`` it replays a fixed op list twice, without and with the span
tracer, and reports per-layer counts and times.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time

from clock import CAL_REF_S, ScaledClock, calibrate
from tracer import LAYERS, Tracer

MIN_OPS = 100  # at least ten latency samples beyond p90


def run_op(wl, op):
    """One op with its correctness gate; an exception is a failed op."""
    try:
        return wl.run(op)
    except Exception as exc:  # noqa: BLE001 - counted as a failure, the run goes on
        return False, f"{type(exc).__name__}: {exc}", 0


def timed(wl, ops, seconds):
    """Closed loop over ``ops`` until ``seconds`` have passed and at least
    MIN_OPS ran; the inputs are reused from the start if exhausted.  Each
    op's latency is scaled to the reference speed (see clock.py)."""
    clock = ScaledClock()
    lat = []
    failed = checks = 0
    oracle_before = wl.oracle_calls
    deadline = time.perf_counter() + seconds
    while True:
        op = ops[len(lat) % len(ops)]
        factor = clock.factor()
        t0 = time.perf_counter()
        ok, _, c = run_op(wl, op)
        t1 = time.perf_counter()
        lat.append((t1 - t0) * factor)
        failed += not ok
        checks += c
        if t1 >= deadline and len(lat) >= MIN_OPS:
            break
    deciles = statistics.quantiles(lat, n=10)
    return {
        "attempted": len(lat),
        "failed": failed,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": deciles[4] * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "checks": checks,
        "oracle_checks": wl.oracle_calls - oracle_before,
        "scale_factor_quartiles": statistics.quantiles(clock.factors, n=4),
    }


def replay(wl, ops):
    """Runs every op once; returns the scaled total time and the outputs."""
    clock = ScaledClock()
    total = 0.0
    outs = []
    for op in ops:
        factor = clock.factor()
        t0 = time.perf_counter()
        outs.append(run_op(wl, op))
        total += (time.perf_counter() - t0) * factor
    return total, outs


def traced(wl, seed, ops, targets, reported):
    """Replay ``ops`` untraced, then rebuild the same inputs and replay them
    with the tracer on.  Outputs, failures and inputs must agree, and every
    function in ``targets`` must have been called.  Per-function metrics are
    reported for ``reported``, per-layer ones for every layer."""
    untraced_s, plain = replay(wl, ops)
    oracle_before = wl.oracle_calls
    tracer = Tracer()
    tracer.install()
    try:
        again = wl.inputs(random.Random(seed), len(ops))
        traced_s, outs = replay(wl, again)
    finally:
        tracer.restore()
    missing = [k for k in targets if not tracer.calls[k]]
    gates = {
        "same_inputs": again == ops,
        "same_outputs": [o[1] for o in outs] == [o[1] for o in plain],
        "same_failures": [o[0] for o in outs] == [o[0] for o in plain],
        "targets_called": not missing,
    }
    metrics = {}
    for key in reported:
        metrics[f"{key}.calls"] = (tracer.calls[key], "count")
        if key != "groups.AbelianGroup.add":
            metrics[f"{key}.self_s"] = (tracer.self_s[key], "s")
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (tracer.busy_s[layer], "s")
        metrics[f"{layer}.self_s"] = (tracer.layer_self_s[layer], "s")
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["audits.checks"] = (sum(o[2] for o in outs), "count")
    metrics["oracle.checks"] = (wl.oracle_calls - oracle_before, "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:12]
    return {
        "ok": [o[0] for o in outs],
        "gates": gates,
        "missing_targets": missing,
        "metrics": metrics,
        "top_self_s": top,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cal = [calibrate()]
    t0 = time.perf_counter()
    import endokat
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    count = wl.trace_ops if args.trace else max(MIN_OPS, math.ceil(wl.pool_rate * args.seconds))
    ops = wl.inputs(random.Random(args.seed), count)
    warmup = wl.inputs(random.Random(f"{args.seed}-warmup"), wl.cycle)
    setup_s = time.perf_counter() - t0
    cal += [calibrate(), calibrate()]
    print(f"ready {setup_s * CAL_REF_S / statistics.median(cal)}", flush=True)
    if args.setup_only:
        return 0

    for op in warmup:
        run_op(wl, op)
    if args.trace:
        out = traced(wl, args.seed, ops, workloads.TARGETS[args.workload], workloads.REPORTED)
    else:
        out = timed(wl, ops, args.seconds)
    out["pool"] = len(ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["environment"] = {"backend": endokat.backend_name(), "python": sys.version.split()[0]}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
