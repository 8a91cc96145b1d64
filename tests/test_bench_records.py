"""The committed benchmark records (``BENCH_<n>.json`` at the repo root)."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"what", "command", "parent_commit", "machine", "runs", "summary"}


def test_every_bench_record_parses_and_has_the_committed_fields():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        n = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        # from BENCH_11 on, each record states the gain it claims (or that it claims none)
        missing = (FIELDS | ({"claim"} if n >= 11 else set())) - set(record)
        assert not missing, f"{path.name} lacks {sorted(missing)}"
