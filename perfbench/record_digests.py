"""Record the verify-suites reference: sha256 of each suite report.

    python3 perfbench/record_digests.py

Runs every (suite, cases, seed) the verify-suites workload can draw through
``mnseries.cli.main`` and writes ``verify_digests.json``.  Re-record only
when a change to the report bytes is intended; the benchmark counts every
op whose report differs as failed.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import call, import_mnseries


def main() -> int:
    mn = import_mnseries()
    digests = {}
    for suite in workloads.SUITES:
        for cases in workloads.VERIFY_CASES:
            row = digests.setdefault(suite, {}).setdefault(str(cases), [])
            for vseed in range(workloads.VERIFY_SEEDS):
                argv = ["verify", suite, "--cases", str(cases), "--seed", str(vseed)]
                rc, out, _ = call(mn, argv)
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {rc}:\n{out}")
                row.append(workloads.verify_digest(out))
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
