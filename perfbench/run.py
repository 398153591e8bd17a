"""endokat benchmark: one workload, one seed, end-to-end or traced metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload audit-lattice --seed 1 --seconds 36 --trace 0

Workloads (perfbench/README.md says why each exists and which layer metric
should move which end-to-end metric):

    audit-lattice  run_instance over all seven law suites, no oracle
    audit-oracle   run_instance with the oracle on, prering/equivalence/sharp
    field-extract  extract_field on distinct seeded matrix bi-modules

The package is imported from ``src/`` of the checkout, with whichever kernel
backend is importable.  With ``--trace 0`` one worker process runs the ops
for ``--seconds``; ``setup_s`` is the median set-up time (package import and
input generation) of that worker and SETUP_PROBES more that stop after
set-up.  All times are scaled to a reference interpreter speed (see
clock.py).  With ``--trace 1`` one process replays a fixed op list without
and with the span tracer.  Every op checks its own output; the run is
``correct`` only if no op failed (and, traced, the two replays agree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "endokat"
WORKLOADS = ("audit-lattice", "audit-oracle", "field-extract")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def worker(args, env):
    """Run one worker to completion; returns (its set-up seconds, its
    report)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    ready = proc.stdout.readline().split()
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out") from None
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return float(ready[1]), json.loads(lines[-1]) if lines else None


def source_digest():
    """sha256 over the package sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            h.update(str(path.relative_to(PACKAGE)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def timed_run(wargs, env):
    setups = [worker(wargs + ["--setup-only"], env)[0] for _ in range(SETUP_PROBES)]
    setup_s, res = worker(wargs, env)
    setups.append(setup_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    details = {
        "fail_ratio": res["failed"] / res["attempted"],
        "latency_samples": res["attempted"],
        "setup_samples_s": setups,
        "checks": res["checks"],
        "oracle_checks": res["oracle_checks"],
        "input_pool": res["pool"],
        "scale_factor_quartiles": res["scale_factor_quartiles"],
    }
    return res["attempted"], res["failed"], True, metrics, details, res["environment"]


def traced_run(wargs, env):
    _, res = worker(wargs, env)
    ok = res["ok"]
    layer_self = {
        k[: -len(".self_s")]: v
        for k, (v, _) in res["metrics"].items()
        if k.count(".") == 1 and k.endswith(".self_s")
    }
    total = sum(layer_self.values())
    details = {
        "gates": res["gates"],
        "missing_targets": res["missing_targets"],
        "layer_self_share": {k: round(v / total, 4) for k, v in layer_self.items()},
        "top_self_s": res["top_self_s"],
    }
    failed = sum(not o for o in ok)
    return len(ok), failed, all(res["gates"].values()), res["metrics"], details, res["environment"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print("perfbench: no package sources under src/endokat; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, gates_ok, metrics, details, env_block = run(wargs, env)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env_block.update(
        git_sha=git_sha(),
        src_sha256=source_digest(),
        nproc=os.cpu_count(),
        seed=args.seed,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
    )
    print(json.dumps({"environment": env_block}))
    print(json.dumps(details))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and gates_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
