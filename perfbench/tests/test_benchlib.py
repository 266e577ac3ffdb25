"""Tests for the benchmark's own logic: span arithmetic, step timing, tails, names, smoke runs."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from benchlib.stats import self_times, step_times, tail_percentile  # noqa: E402
from benchlib.workloads import WORKLOADS, run_workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0, "adv"],
        ["a", 1.0, 4.0, 0, 0, "adv"],
        ["a.inner", 2.0, 3.0, 1, 0, "adv"],
        ["b", 5.0, 9.0, 0, 0, "adv"],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_step_times_are_sink_gaps_minus_eval_time():
    # three steps written at 1, 3 and 6; an eval ran between the 2nd and 3rd
    assert step_times(0.0, [1.0, 3.0, 6.0], [(3.5, 4.5)]) == pytest.approx([1.0, 2.0, 2.0])
    assert step_times(0.5, [1.0], []) == pytest.approx([0.5])


@pytest.mark.parametrize(
    "n, expected",
    [(100, (90, 90.0)), (30, (66, 20.0)), (200, (95, 190.0)), (10, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]
    assert tail_percentile(samples) == expected


def test_benchmark_names_follow_the_rule_and_are_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert [n for n in names if not NAME_RULE.fullmatch(n)] == []
    assert len(set(names)) == len(names)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize(
    "name, trace", [("motif-demo", False), ("motif-demo", True), ("para-default", True)]
)
def test_smoke_run_passes_its_output_checks(name, trace, tmp_path):
    # a traced run also makes the untraced pass, so one run per workload covers it;
    # budgets shrink to one eval interval and one read-path chunk; a run this short
    # still makes the fewest rounds (two untraced, one traced)
    w = WORKLOADS[name]
    tiny = dataclasses.replace(w, steps=(w.train["eval_interval_steps"],) * 2, bulk=256,
                               robust_examples=1)
    result = run_workload(tiny, seed=3, seconds=0.01, trace=trace, work_dir=str(tmp_path))
    assert result["notes"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert os.listdir(tmp_path) == []   # checkpoints of the roundtrip check are removed


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "motif-demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
