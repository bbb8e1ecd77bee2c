"""The benchmark's own tests: output shape, span arithmetic, seeding, the gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from extsquare import jsonio, plucker, rdu, words  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, 5, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_two_seeds_give_different_inputs_and_the_same_metric_names():
    for name, workload in workloads.WORKLOADS.items():
        fingerprints = []
        for seed in (1, 2, 1):
            inputs = workload.inputs(seed, True, {"level": 0.0})
            fingerprints.append(repr(_fingerprint(inputs)))
        assert fingerprints[0] == fingerprints[2], name
        assert fingerprints[0] != fingerprints[1], name
    names = []
    for seed in (1, 2):
        proc = _run("membership", seed, 0)
        names.append(list(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]))
    assert names[0] == names[1]


def _fingerprint(inputs):
    out = []
    for cycle in inputs:
        for item in cycle:
            if isinstance(item, workloads.Plan):
                out.append((item.g.fwd.rows, [(g.kind, g.I, g.J) for g in item.order]))
            elif isinstance(item, workloads.Artifacts):
                out.append((item.gen_bytes, item.entry, item.diag, item.near_bytes))
            else:
                out.append((item[0], item[1], item[2].rows))
    return out


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 100] with children a [10, 30], b [20, 50] (overlapping a) and
    # c [90, 120] (running past root); a has a child d [12, 15]
    starts = [0, 10, 12, 20, 90]
    ends = [100, 30, 15, 50, 120]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [100 - 40 - 10, 17, 3, 30, 30]
    names = ["x", "y", "y", "x", "z"]
    assert tracing.outermost(names, parents, {"y"}) == [1]
    assert tracing.outermost(names, parents, {"x", "z"}) == [0]


def test_recorder_nests_spans_and_wrappers_are_removed_afterwards():
    original = words.ExtWord.__dict__["eval"]
    rec = tracing.Recorder()
    with tracing.installed(rec):
        assert words.ExtWord.__dict__["eval"] is not original
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
    assert words.ExtWord.__dict__["eval"] is original
    assert rec.parents == [-1, 0]
    assert rec.starts[0] <= rec.starts[1] <= rec.ends[1] <= rec.ends[0]


def test_spread_keeps_every_prefix_in_proportion():
    merged = workloads.spread([list("aaaaaa"), list("bb"), list("ccc")])
    assert sorted(merged) == sorted("aaaaaabbccc")
    for k in range(1, len(merged) + 1):
        prefix = merged[:k]
        for letter, total in (("a", 6), ("b", 2), ("c", 3)):
            assert abs(prefix.count(letter) - k * total / len(merged)) <= 1


def _gated(workload, workdir, monkeypatch, *patch):
    """One unit of a smoke-size stream with `patch` applied after the inputs exist."""
    inputs = workload.inputs(3, True, {"level": 0.0})
    monkeypatch.setattr(*patch)
    out = workloads.Outcome()
    workload.run(inputs, lambda done: done >= 1, out, True, str(workdir))
    return out


def test_gate_catches_a_refereed_decomposition_that_fails(monkeypatch, tmp_path):
    out = _gated(workloads.WORKLOADS["engine-zmod97"], tmp_path, monkeypatch,
                 rdu, "verify", lambda *args, **kwargs: False)
    assert out.attempted == 4 and out.failed == 4  # three targets and the system


def test_gate_catches_a_wrong_membership_answer(monkeypatch, tmp_path):
    out = _gated(workloads.WORKLOADS["membership"], tmp_path, monkeypatch,
                 plucker, "is_member", lambda g, n=None: True)
    assert out.failed == workloads.Membership.near and out.attempted == 1 + out.failed


def test_gate_catches_a_changed_cli_artifact(monkeypatch, tmp_path):
    dumps = jsonio.dumps
    out = _gated(workloads.WORKLOADS["cli-pipeline"], tmp_path, monkeypatch,
                 jsonio, "dumps", lambda obj: dumps(obj) + " ")
    assert out.failed >= 1 and out.attempted == len(out.ops)


def test_run_refuses_to_start_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("membership", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
