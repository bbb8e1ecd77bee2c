"""The engine and the command line still do the same work: tools/same_work.py
hashes the words, params, certificate names, exit codes, output text and
written files of its seeded sweeps and commands into one pinned digest, and
no sweep takes more _kernel_matmul calls than pinned here."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "same_work.py"
DIGEST = "f7518255b0cf60b930ec14dc0b80d5f76aaeb79158401d8fd4614e8a8324fea9"
# the most _kernel_matmul calls each sweep may take, for each seed
KERNEL_CALLS = {
    "ModularRing(97) n=5": 2995,
    "ModularRing(97) n=6": 6708,
    "ModularRing(2147483647) n=4": 1127,
    "ModularRing(2147483647) n=5": 2995,
    "IntegerRing() n=4": 0,
}
CALLS_LINE = "_kernel_matmul calls per sweep: "


def test_same_work_prints_the_pinned_digest():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == DIGEST
    # "ModularRing(97) n=5 seed 1: 2995; ..." -> each sweep's count
    (calls,) = [line[len(CALLS_LINE) :] for line in lines if line.startswith(CALLS_LINE)]
    counts = dict(entry.rsplit(": ", 1) for entry in calls.split("; "))
    sweeps = [sweep.rsplit(" seed ", 1)[0] for sweep in counts]
    assert sorted(sweeps) == sorted(2 * list(KERNEL_CALLS))
    for sweep, name in zip(counts, sweeps):
        assert int(counts[sweep]) <= KERNEL_CALLS[name], sweep
