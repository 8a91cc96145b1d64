"""Self-test of the benchmark at small size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def bench(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_one_command_prints_every_end_to_end_metric_with_its_unit():
    report, result = bench("--workload", "all", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for wl in workloads.WORKLOADS:
        section = report[report.index(f"== {wl}") + 1:]
        for name, unit, _ in run.END_TO_END:
            assert result["metrics"][f"{wl}.{name}"]["unit"] == unit
            assert result["metrics"][f"{wl}.{name}"]["value"] > 0
            assert any(re.match(rf"{name} +[0-9.]+ +{re.escape(unit)} ", line)
                       for line in section), name
        assert any(re.match(r"fail_ratio +0\.0+ +ratio 0 of \d+ ops failed", line)
                   for line in section)
        assert re.search(r"op_p90_ms .* n=\d+, \d+ beyond", "\n".join(section))


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_and_outputs(wl):
    runs = [bench("--workload", wl, "--seed", "5", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    for report, result in runs:
        assert result["correct"]
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
            (name, unit) for name, unit, _ in tracing.PER_LAYER]
        for name, unit, moves in tracing.PER_LAYER:
            assert any(line.startswith(name + " ") and line.rstrip().endswith(moves)
                       for line in report), name
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
              for _, result in runs]
    assert counts[0] == counts[1] and any(counts[0].values())
    digests = [[line for line in report if "count-pass output digest" in line][0].split()[-1]
               for report, _ in runs]
    assert digests[0] == digests[1]


def test_latencies_scale_by_the_reference_chunks_around_them():
    n = 3 * reference.WINDOW
    at_speed = [reference.CHUNK_S] * n
    assert reference.scaled([0.1] * n, at_speed) == pytest.approx([0.1] * n)
    assert reference.scaled([0.1] * n, [2 * c for c in at_speed]) == pytest.approx([0.05] * n)
    # a slow spell far from an op leaves its latency alone
    slow = at_speed[:n - 1] + [100 * reference.CHUNK_S]
    assert reference.scaled([0.1] * n, slow)[0] == pytest.approx(0.1)
    assert reference.chunk() == reference.chunk()


def _corrupt_digit(text):
    """Change the last digit of the text to another digit."""
    m = list(re.finditer(r"\d", text))[-1]
    digit = "7" if m.group() != "7" else "3"
    return text[:m.start()] + digit + text[m.end():]


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_a_corrupted_output_digit_counts_as_failed(wl):
    mn = worker.import_mnseries()
    spec = workloads.REGISTRY[wl]
    records = []
    for k in range(3):
        op = spec.make(11, k)
        rc, out, dt = worker.call(mn, op["argv"])
        records.append((op, rc, out, dt))
    assert worker.check(spec, mn, records) == 0
    op, rc, out, dt = records[1]
    records[1] = (op, rc, _corrupt_digit(out), dt)
    assert worker.check(spec, mn, records) == 1


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no mnseries to measure."""
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "carry-mul",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
