"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

The worker imports ``mnseries`` from the checkout's ``src`` directory, runs
the workload's fixed warm-up op, and then runs ops one after another in a
closed loop (one client) through ``mnseries.cli.main`` with stdout captured.
Untraced, it times one reference chunk (``reference.py``) in the gap after
each op, so the caller can give latencies at the reference speed.  The timed
phase ends at the first cycle boundary after S seconds, so every run holds
whole cycles of the size classes.  Outputs are checked after the timed
phase.  The result is one JSON line on stdout.

``--setup-only`` stops after the warm-up and prints the monotonic clock, so
the caller can time a fresh interpreter up to its first timed op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_mnseries():
    src = ROOT / "src"
    if not (src / "mnseries" / "__init__.py").is_file():
        raise SystemExit(f"no mnseries sources under {src}")
    sys.path.insert(0, str(src))
    import mnseries
    import mnseries.cli

    if Path(mnseries.__file__).resolve().parent != src / "mnseries":
        raise SystemExit(f"imported mnseries from {mnseries.__file__}, not from {src}")
    return mnseries


def call(mn, argv):
    """Run one CLI op; return (exit code, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = mn.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises counts as failed
            rc = -1
        t1 = time.perf_counter()
    return rc, out.getvalue(), t1 - t0


def cycles(wl, seed):
    """Successive cycles (first op index, ops) of the op stream from op 0."""
    k = 0
    while True:
        ops = [wl.make(seed, k + j) for j in range(wl.cycle)]
        gc.collect()
        gc.freeze()  # keep the benchmark's own objects out of the collector's way
        yield k, ops
        k += wl.cycle


def run_cycle(mn, ops, tracer=None, k=0, chunks=None):
    """Closed loop over one cycle; returns the records (op, exit code, stdout,
    latency) and the busy time, which leaves out generating the inputs.  With
    a ``chunks`` list, one reference chunk is timed after each op and its
    time appended there; busy time then includes the chunks."""
    records = []
    t0 = time.perf_counter()
    for j, op in enumerate(ops):
        if tracer:
            tracer.op_id = k + j
        records.append((op, *call(mn, op["argv"])))
        if chunks is not None:
            chunks.append(reference.timed_chunk())
    return records, time.perf_counter() - t0


def check(wl, mn, records):
    """Failed ops: raised, exited non-zero, or failed the independent check."""
    state = {"mnseries": mn}
    return sum(0 if wl.check(op, rc, out, state) else 1 for op, rc, out, _ in records)


def output_digest(records) -> str:
    h = hashlib.sha256()
    for _, rc, out, _ in records:
        h.update(f"{rc}\n{out}\0".encode("utf-8"))
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.REGISTRY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.REGISTRY[args.workload]

    mn = import_mnseries()
    tracer = restore = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(mn, tracer)
    try:
        rc, _, _ = call(mn, wl.warmup)
    finally:
        if restore:
            restore()
    if rc != 0:
        raise SystemExit(f"warm-up op exited {rc}")
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    result = {"workload": wl.name, "seed": args.seed}
    records, busy = [], 0.0
    if not args.trace:
        chunks = []
        for _, ops in cycles(wl, args.seed):
            r, t = run_cycle(mn, ops, chunks=chunks)
            records += r
            busy += t
            if busy >= args.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["chunks_s"] = chunks
    else:
        # each cycle untraced, then traced: the ratio of the two busy times is
        # the tracing overhead, measured on the same ops and the same machine
        traced, traced_busy = [], 0.0
        for k, ops in cycles(wl, args.seed):
            r, t = run_cycle(mn, ops)
            records += r
            busy += t
            restore = tracing.install(mn, tracer)
            tracer.counting = k == 0  # the count pass is the first cycle
            try:
                r, t = run_cycle(mn, ops, tracer, k)
            finally:
                tracer.counting = False
                restore()
            traced += r
            traced_busy += t
            if busy + traced_busy >= args.seconds:
                break
        layer = tracing.per_layer(tracer, len(traced))
        layer["trace.ops_per_s"] = len(traced) / traced_busy
        layer["trace.untraced_ops_per_s"] = len(records) / busy
        layer["trace.slowdown"] = layer["trace.untraced_ops_per_s"] / layer["trace.ops_per_s"]
        result["per_layer"] = layer
        result["spans"] = len(tracer.start)
        result["count_pass_digest"] = output_digest(traced[: wl.cycle])
        records, busy = records + traced, busy + traced_busy
    gc.unfreeze()

    result["ops"] = len(records)
    result["busy_s"] = busy
    result["latencies_s"] = [dt for _, _, _, dt in records]
    result["failed"] = check(wl, mn, records)
    result["inputs"] = workloads.size_histogram([op for op, _, _, _ in records])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
