"""One benchmark process: import the CLI, build the seeded schedule, run
whole cycles of CLI commands in-process through ``cli.main(argv)`` and check
each command's output against the oracles.

Started by ``run.py`` in a fresh interpreter with the package's ``src`` on
``PYTHONPATH`` and BLAS/OpenMP threads capped. Protocol on stdout: a line
``READY`` once set-up is done, then one JSON line with the results.

    python3 worker.py --workload W --seed N --seconds S --trace 0|1 \
        --mode run|setup|replay --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("run", "setup", "replay"), default="run")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def _run_op(cli, op, out_dir: Path, tracer, op_id: int, cycle: int, basis_of) -> dict:
    """Time one CLI command, then check its output (outside the timing).
    The reference kernel runs just before the command, untimed by it.
    ``basis_of(amps)`` gives the measurement basis ``interfere`` uses."""
    path = out_dir / f"op{op_id}.out"
    argv = list(op.argv) + ["--output", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    ref_s = calibrate.reference()
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.op = None
    outputs = {"stdout": oracles.text_identity(stdout.getvalue())}
    if path.exists():
        outputs["file"] = oracles.file_identity(path)
    if op.argv[0] == "verify":
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        check = oracles.check_verify(op, rc, text)
        rows = len(op.states)
    else:
        if path.exists():
            basis = basis_of(oracles.state_amplitudes(op.states[0]))
            check = oracles.check_interfere(op, rc, path, basis)
        else:
            check = oracles.Check(ops=1)
            check.fail(f"exit code {rc}, no output file")
        rows = op.phase_points ** 2
    path.unlink(missing_ok=True)
    return {"op": op_id, "cycle": cycle, "kind": op.kind, "argv": argv[:-2], "rc": rc,
            "start": t0, "seconds": t1 - t0, "ref_s": ref_s, "states": len(op.states),
            "rows": rows, "ops": check.ops, "failed": check.failed,
            "max_err": check.max_err, "reasons": check.reasons,
            "outputs": outputs, "stderr": stderr.getvalue()[-500:]}


def main(argv=None) -> int:
    args = _parse(argv)
    import qcomplement
    from qcomplement import cli, measures
    from qcomplement.core import PureState

    src = (ROOT / "src").resolve()
    if Path(qcomplement.__file__).resolve().parent.parent != src:
        print(f"qcomplement imported from {qcomplement.__file__}, not {src}",
              file=sys.stderr)
        return 2
    schedule = workloads.cycles(args.workload, args.seed)
    first = next(schedule)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    def basis_of(amps):
        return measures.preferred_basis(PureState(amps, 3)).vectors()

    results = []
    timed = 0.0
    for k, cycle in enumerate(itertools.chain([first], schedule)):
        t_cycle = 0.0
        for op in cycle:
            res = _run_op(cli, op, out_dir, tracer, len(results), k, basis_of)
            results.append(res)
            t_cycle += res["seconds"]
        timed += t_cycle
        # Whole cycles only: start another one only if it should still fit.
        if args.mode == "replay" or timed + t_cycle > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
    payload = {
        "ops": results,
        "ref_end_s": calibrate.reference(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "spans": tracer.spans if tracer is not None else None,
        "span_cost_s": spans.span_cost() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
