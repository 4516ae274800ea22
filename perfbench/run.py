#!/usr/bin/env python3
"""Benchmark of the qcomplement CLI: end-to-end throughput, set-up time,
memory and accuracy, or (with ``--trace 1``) per-layer figures.

    python3 perfbench/run.py --workload verify-equality --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src``.
One closed-loop client issues CLI commands in-process through
``cli.main(argv)``, one at a time, in a fresh interpreter (``worker.py``)
per run. Every output is checked against the oracles in ``oracles.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run,
with the size and sha256 of every CLI output, goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402  (sibling modules, found through the line above)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
ERR_FLOOR = 1e-16

END_TO_END = {
    "setup_s": "s",
    "states_per_s": "states/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "err_digits": "digits",
    "pass_frac": "ratio",
}
E2E_REPORT_ONLY = {
    "wall_states_per_s": "states/s",
    "wall_rows_per_s": "rows/s",
    "machine_speed": "ratio",
}
# Per-layer figures printed in the result line: each is non-zero on every
# workload. The figures of layers one workload never enters (direct
# quantifiers and visibility extraction in ``interfere``, the density sweep
# in ``verify-*``, the harness in ``interfere``) are in the report above it.
PER_LAYER = {
    "states.construct_ms_per_state": "ms",
    "measures.ms_per_state": "ms",
    "measures.basis_ms_per_state": "ms",
    "core.partial_trace_calls_per_state": "count",
    "core.hermitian_eig_calls_per_state": "count",
    "interferometer.self_ms_per_state": "ms",
    "interferometer.sweep_ms_per_state": "ms",
    "interferometer.grid_points_per_state": "count",
    "interferometer.sweep_array_mb": "MiB",
    "frontend.self_ms_per_state": "ms",
    "cli.self_s_per_op": "s",
    "cli.output_mb_per_op": "MiB",
    "trace.uncovered_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
    "trace.modeled_overhead_frac": "ratio",
    "trace.spans_per_op": "count",
}
REPORT_ONLY = {
    "measures.direct_ms_per_state": "ms",
    "interferometer.visibility_ms_per_state": "ms",
    "interferometer.density_sweep_s_per_op": "s",
    "harness.self_ms_per_state": "ms",
    "trace.overhead_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


def _spawn(mode: str, args, env: dict, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it reported READY, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace if mode == "run" else 0),
           "--mode", mode, "--out", str(OUT)]
    with open(OUT / "worker.stderr", "a", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=ROOT, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}; "
                           f"see {OUT / 'worker.stderr'}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(result: dict, setups: list) -> dict:
    """Throughputs are items per second of CLI time over the whole run,
    scaled to the reference machine's speed (see ``calibrate.py``)."""
    ops = result["ops"]
    attempted = sum(o["ops"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    max_err = max(o["max_err"] for o in ops)
    seconds = [o["seconds"] for o in ops]
    states = sum(o["states"] for o in ops) / sum(seconds)
    rows = sum(o["rows"] for o in ops) / sum(seconds)
    slow = calibrate.slowdown(seconds, [o["ref_s"] for o in ops] + [result["ref_end_s"]])
    return {
        "setup_s": statistics.median(setups),
        "states_per_s": states * slow,
        "rows_per_s": rows * slow,
        "peak_rss_mb": result["peak_rss_mb"],
        "err_digits": -math.log10(max(max_err, ERR_FLOOR)),
        "pass_frac": (attempted - failed) / attempted,
        # Reported and recorded, not in the result line: the unscaled
        # throughputs and the machine's speed relative to the reference one.
        "wall_states_per_s": states,
        "wall_rows_per_s": rows,
        "machine_speed": 1.0 / slow,
    }


def per_layer(result: dict, replay: dict) -> dict:
    ops, tree = result["ops"], result["spans"]
    n_states = sum(o["states"] for o in ops)
    figures = spans.layer_figures(tree, n_states, len(ops))
    out_bytes = sum(v["bytes"] for o in ops for v in o["outputs"].values())
    figures["cli.output_mb_per_op"] = out_bytes / len(ops) / 2**20
    roots = sum(s[spans.END] - s[spans.START] for s in tree if s[spans.PARENT] < 0)
    figures["trace.uncovered_ms_per_op"] = (
        1e3 * (sum(o["seconds"] for o in ops) - roots) / len(ops))
    n = len(replay["ops"])
    traced = sum(o["seconds"] for o in ops[:n])
    untraced = sum(o["seconds"] for o in replay["ops"])
    figures["trace.overhead_s"] = traced - untraced
    figures["trace.overhead_frac"] = (traced - untraced) / untraced
    # The replay difference is within run-to-run noise when spans are few;
    # the span count times the cost of one span bounds the overhead from below.
    modeled = len(tree) * result["span_cost_s"]
    figures["trace.spans_per_op"] = len(tree) / len(ops)
    figures["trace.modeled_overhead_frac"] = (
        modeled / (sum(o["seconds"] for o in ops) - modeled))
    return figures


def layer_shares(result: dict) -> dict:
    """Share of each layer's self time in the traced time, per command kind."""
    kind_of = {o["op"]: o["kind"].split(":")[0] for o in result["ops"]}
    tree = result["spans"]
    sums = {}
    for s, t in zip(tree, spans.self_times(tree)):
        own = sums.setdefault(kind_of[s[spans.OP]], dict.fromkeys(spans.MODULES, 0.0))
        own[spans.layer_of(s[spans.NAME])] += t
    return {kind: {m: v / (sum(own.values()) or 1.0) for m, v in own.items()}
            for kind, own in sums.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qcomplement" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qcomplement'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env, nproc = _worker_env()
    try:
        setups = [_spawn("setup", args, env, SETUP_TIMEOUT_S)[0]
                  for _ in range(SETUP_PROBES)]
        setup, result = _spawn("run", args, env, RUN_TIMEOUT_S)
        setups.append(setup)
        replay = _spawn("replay", args, env, RUN_TIMEOUT_S)[1] if args.trace else None
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    attempted = sum(o["ops"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    e2e = end_to_end(result, setups)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": result["python"], "numpy": result["numpy"],
        "nproc": nproc, "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        **_source_identity(),
        "attempted": attempted, "failed": failed, "setup_samples_s": setups,
        "end_to_end": e2e, "ops": ops, "ref_end_s": result["ref_end_s"],
    }
    print(f"{args.workload} seed={args.seed}: {len(ops)} commands, "
          f"{sum(o['states'] for o in ops)} states, "
          f"{sum(o['seconds'] for o in ops):.2f} s timed, "
          f"{failed}/{attempted} operations failed")
    for o in ops:
        if o["failed"]:
            print(f"  FAILED op {o['op']} {' '.join(o['argv'])}: {o['reasons']}")
    if args.trace:
        figures = per_layer(result, replay)
        record["per_layer"] = figures
        record["layer_self_share"] = layer_shares(result)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                        "spans": result["spans"]}))
        for name, unit in {**PER_LAYER, **REPORT_ONLY}.items():
            print(f"  {name:42s} {figures[name]:14.6g} {unit}")
        for kind, shares in record["layer_self_share"].items():
            print(f"  self-time share, {kind:8s} " + "  ".join(
                f"{k} {v:.1%}" for k, v in shares.items()))
        metrics = {k: {"value": figures[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        for name, unit in {**END_TO_END, **E2E_REPORT_ONLY}.items():
            print(f"  {name:18s} {e2e[name]:14.6g} {unit}")
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
