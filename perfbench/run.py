#!/usr/bin/env python3
"""otrobust benchmark: one workload run per process, result as JSON.

    python3 perfbench/run.py --workload robust_ring --seed 1 --seconds 30 --trace 0

Run from the repository root; ``src/`` is put on the path, so nothing needs
installing.  Inputs come from ``--seed`` and the program sees only the
generated inputs.  The run makes ``--seconds`` / ``PASS_S`` whole passes,
rounded, over the workload's operations (at least one), a count fixed in
advance so that a slow spell on the host cannot change the work a run does,
then checks every distinct output against ``reference.py``.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``solve_s`` (one
pass, each operation at its fastest over the run's passes) and
``peak_rss_mb``.  ``--trace 1`` runs one cold untraced pass, then the same
number of passes as ``--trace 0``, each traced and preceded by an untraced
one, and reports the per-layer metrics of ``tracer.py``; its results must be
bit-identical to the cold pass.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``perfbench/out/``.
"""
from __future__ import annotations

import os
import time


def _process_start() -> float:
    """``time.perf_counter()`` reading at the moment this process started."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # since boot
        return now - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return now


T_PROCESS = _process_start()

# cap native thread pools at the CPUs this process may use
_NCPU = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _NCPU)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("robust_ring", "small_instances", "ot_baselines")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import otrobust from this checkout's ``src/``; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "otrobust", "__init__.py")):
        raise SystemExit(f"no otrobust sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import otrobust
    import otrobust.cli  # noqa: F401  (everything a workload reaches)

    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(otrobust.__file__))
    if where != os.path.join(SRC, "otrobust"):
        raise SystemExit(f"imported otrobust from {where}, not {SRC}")
    return elapsed


def _check(wl, ops, pass_outs, problems):
    """Check each distinct output once; returns the failed-operation count."""
    import workloads

    verdict = {}
    failed = 0
    for outs in pass_outs:
        for op in ops:
            out = outs[op.name]
            if out is None or out.get("digest") is None:
                failed += 1
                continue
            key = (op.name, out["digest"])
            if key not in verdict:
                try:
                    verdict[key] = bool(wl.check(op, out))
                except workloads.Failure as e:
                    problems.append(f"{op.name}: {e}")
                    verdict[key] = False
                except Exception as e:  # a reference that breaks is a wrong result too
                    problems.append(f"{op.name}: check raised {type(e).__name__}: {e}")
                    verdict[key] = False
            failed += verdict[key]
        try:
            wl.check_pass(outs)
        except workloads.Failure as e:
            problems.append(str(e))
    return failed


def main(argv=None) -> int:
    args = _args(argv)
    t_import = _import_program()
    import workloads
    from tracer import Tracer

    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    t0 = time.perf_counter()
    wl.setup()
    t_datagen = time.perf_counter() - t0
    setup_s = time.perf_counter() - T_PROCESS
    ops = wl.ops()
    # the same work in every run, whatever the host's speed at the moment
    count = max(1, round(args.seconds / wl.PASS_S))

    problems = []
    if not args.trace:
        times, outs = zip(*(workloads.run_pass(ops) for _ in range(count)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (workloads.fastest_pass(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        # a cold untraced pass gives the reference outputs; then each traced
        # pass follows a warm untraced one, which is what its time is set against
        _, base_out = workloads.run_pass(ops)
        tracer = Tracer()
        plain, times, outs, plain_outs = [], [], [], []
        for i in range(count):
            dt, out = workloads.run_pass(ops)
            plain.append(dt)
            plain_outs.append(out)
            tracer.begin_pass(i)
            tracer.install()
            try:
                dt, out = workloads.run_pass(ops)
            finally:
                tracer.restore()
            times.append(dt)
            outs.append(out)
        for i, out in enumerate(outs):
            for op in ops:
                a, b = base_out[op.name], out[op.name]
                if (a and a.get("digest")) != (b and b.get("digest")):
                    problems.append(f"traced pass {i}: {op.name} differs from untraced")
        outs = [base_out] + plain_outs + outs
        metrics = tracer.metrics(range(count))
        metrics["setup.import.s"] = (t_import, "s")
        metrics["setup.datagen.s"] = (t_datagen, "s")
        metrics["trace.overhead"] = (
            workloads.fastest_pass(times) / workloads.fastest_pass(plain) - 1.0, "share")
        absent = tracer.absent_metrics()
        tracer.write(os.path.join(outdir, "trace.json"), {
            "workload": args.workload, "seed": args.seed,
            "untraced_op_s": plain, "traced_op_s": times,
            "metrics": {k: v[0] for k, v in metrics.items()},
        })
        if absent:
            print("absent per-layer metrics (reported as 0): " + ", ".join(absent))

    failed = _check(wl, ops, outs, problems)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(outs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
