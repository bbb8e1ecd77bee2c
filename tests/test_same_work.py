"""The engine and the command line still do the same work: tools/same_work.py
hashes the words, params, certificate names, exit codes, output text and
written files of its seeded sweeps and commands into one pinned digest."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "same_work.py"
DIGEST = "f7518255b0cf60b930ec14dc0b80d5f76aaeb79158401d8fd4614e8a8324fea9"


def test_same_work_prints_the_pinned_digest():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == DIGEST
