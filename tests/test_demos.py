"""Every demo prints the bytes whose sha256 is recorded in demo_digests.json."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((Path(__file__).parent / "demo_digests.json").read_text())


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
