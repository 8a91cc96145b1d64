"""Seeded benchmark of mnseries: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py [--workload carry-mul|profile-chain|verify-suites|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``mnseries`` is imported from its ``src``.
Each workload runs in its own fresh interpreter (``worker.py``, fixed
PYTHONHASHSEED), one process at a time, as a single closed-loop client.
With ``--trace 0`` the run reports the end-to-end metrics.  Op latencies
are given at the reference speed (``reference.py``), which takes out the
drift of the shared host's CPU speed; the raw figures are printed beside
them.  ``setup_s`` is the median over several fresh interpreters timed from
start to the end of the warm-up op.  With ``--trace 1`` it reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0

# (name, unit, how it is measured)
END_TO_END = (
    ("ops_per_s", "1/s", "ops completed per second of op time, at the reference speed"),
    ("op_p50_ms", "ms", "median op latency, at the reference speed"),
    ("op_p90_ms", "ms", "90th-percentile op latency, at the reference speed"),
    ("setup_s", "s", "fresh interpreter to first timed op, median of probes"),
    ("peak_rss_mb", "MB", "max RSS of the workload's process in the timed phase"),
)


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run a worker to completion; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(workload, deadline):
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        ready = child(["--workload", workload, "--setup-only"], deadline)["ready"]
        samples.append(ready - t0)
    return statistics.median(samples)


def git_commit():
    """HEAD from the .git directory, when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_speed(seconds=0.5):
    """Rate of a fixed pure-Python loop: shows machine drift between runs."""
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(i * i % 7 for i in range(10000))
        n += 1
    return n / (time.perf_counter() - t0)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mnseries").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_workload(workload, seed, seconds, trace, deadline):
    """One workload; returns (report lines, attempted, failed, metrics)."""
    load_start, speed_start = os.getloadavg()[0], machine_speed()
    res = child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], deadline)
    attempted, failed = res["ops"], res["failed"]
    lines = []
    if trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        lines.append(f"{'per-layer metric':40} {'value':>16} {'unit':6} moves")
        for name, unit, moves in tracing.PER_LAYER:
            lines.append(f"{name:40} {res['per_layer'][name]:16.9g} {unit:6} {moves}")
        lines.append(f"spans recorded: {res['spans']}; count-pass output digest "
                     f"{res['count_pass_digest']}")
    else:
        raw = [dt * 1000 for dt in res["latencies_s"]]
        lat = sorted(reference.scaled(raw, res["chunks_s"]))
        p90, beyond = percentile(lat, 0.9)
        values = {
            "ops_per_s": 1000 * attempted / sum(lat),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": p90,
            "setup_s": setup_seconds(workload, deadline),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw_p90, _ = percentile(sorted(raw), 0.9)
        notes = {
            "ops_per_s": f"raw {1000 * attempted / sum(raw):.6f}",
            "op_p50_ms": f"raw {statistics.median(raw):.6f}",
            "op_p90_ms": f"raw {raw_p90:.6f}; n={len(lat)}, {beyond} beyond",
            "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        for name, unit, how in END_TO_END:
            lines.append(f"{name:12} {values[name]:14.6f} {unit:5} {notes.get(name, how)}")
        lines.append(f"{'chunk_ms':12} {1000 * statistics.mean(res['chunks_s']):14.6f} "
                     f"{'ms':5} mean reference chunk; {1000 * reference.CHUNK_S:g} ms "
                     f"is the reference speed")
        lines.append(f"{'fail_ratio':12} {failed / attempted:14.6f} {'ratio':5} "
                     f"{failed} of {attempted} ops failed")
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "source_sha256": source_digest(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "loops_per_s_start": speed_start, "loops_per_s_end": machine_speed(),
        "inputs": res["inputs"],
    }
    return [f"meta {json.dumps(meta, sort_keys=True)}"] + lines, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(workloads.REGISTRY) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mnseries" / "__init__.py").is_file():
        print(f"error: no mnseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            lines, a, f, metrics = run_workload(name, args.seed, args.seconds, args.trace,
                                                deadline)
            print(f"== {name}")
            print("\n".join(lines))
            attempted, failed = attempted + a, failed + f
            prefix = "" if len(names) == 1 else f"{name}."
            combined.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
