"""Tests of the benchmark itself: seeded inputs, metric names, span accounting.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, jobs, spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: a few cheap jobs per workload; the thread-pool job exercises worker spans
SUBSET = {
    "exponent-sweep": ("s0-b1-pa-converse", "s0-b3-sc-converse", "secrecy-c0"),
    "exact-enum": ("s0-pa-b2", "s0-sc-M2", "s0-eq-b2", "l33-pa-b4"),
    "monte-carlo": ("m22-pa-b2", "m33-pa-b4-threads", "leak-exact"),
    "cli-cold": ("data-info", "data-equivalence", "refuse-exact-33-b4", "fail-rate-nan"),
}


def _small(name: str, workdir: Path) -> jobs.Workload:
    wl = jobs.build(name, 5, workdir)
    wl.jobs = [j for j in wl.jobs if j.name in SUBSET[name]]
    assert len(wl.jobs) == len(SUBSET[name])
    return wl


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_seed_fixes_job_list_and_input_bytes(name, tmp_path):
    a = jobs.build(name, 3, tmp_path / "a")
    b = jobs.build(name, 3, tmp_path / "b")
    c = jobs.build(name, 4, tmp_path / "c")
    assert [(j.name, j.argv) for j in a.jobs] == [(j.name, j.argv) for j in b.jobs]
    assert a.inputs == b.inputs
    # the structure is fixed; the seed draws only the numbers
    assert [j.name for j in a.jobs] == [j.name for j in c.jobs]
    assert all(a.inputs[k] != c.inputs[k] for k in a.inputs if not k.startswith("data/"))


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_every_declared_metric_is_emitted(name, tmp_path):
    wl = _small(name, tmp_path)
    untraced = harness.untraced_run(wl, seconds=0.01, setup=[0.1])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(untraced["metrics"])
    assert {"fail_frac", "refused_frac"} <= set(untraced["metrics"])
    assert untraced["metrics"]["peak_rss_mb"][0] > 0
    traced = harness.traced_run(wl, seconds=0.01)
    assert {m["name"] for m in SPEC["per_layer"]} == set(traced["metrics"])
    assert all(isinstance(v, (int, float)) for v in traced["metrics"].values())


def test_self_times_cover_the_traced_wall_time(tmp_path):
    wl = _small("monte-carlo", tmp_path)
    traced = harness.traced_run(wl, seconds=0.01)
    recorded = traced["spans"]
    main = recorded[0].thread
    selfs = spans.self_times(recorded)
    own = [selfs[id(s)] for s in recorded if s.thread == main]
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(traced["traced_s"], rel=1e-9, abs=1e-9)
    if jobs._threads() > 1:
        assert any(s.thread != main for s in recorded)


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    import numpy as np

    from qpamp import divergence, simulate

    before = (np.linalg.eigvalsh, simulate.d_pa_exact, simulate.enumerate_type_class,
              divergence.augustin_sandwiched_curve)
    harness.traced_run(_small("exact-enum", tmp_path), seconds=0.01)
    after = (np.linalg.eigvalsh, simulate.d_pa_exact, simulate.enumerate_type_class,
             divergence.augustin_sandwiched_curve)
    assert before == after


def test_tracer_attributes_pool_spans_to_the_caller():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    inner = tracer.spans[-1]
    assert inner.parent is outer and inner.thread != outer.thread
    assert spans.self_times(tracer.spans)[id(outer)] == outer.duration


@pytest.mark.parametrize(
    "code, stderr, expect, status",
    [
        (0, "", {0}, "ok"),
        (3, "error: cap", {0, 3}, "refused"),
        (1, "error: bad --points", {1}, "ok"),
        (0, "", {1}, "failed"),  # e.g. --rate nan printing a null exponent
        (1, "Traceback (most recent call last):\nValueError: x", {1}, "failed"),
        (-9, "", {0, 3}, "failed"),
    ],
)
def test_cli_outcome_follows_the_documented_exit_codes(code, stderr, expect, status):
    job = jobs.Job("j", argv=("info",), expect=frozenset(expect))
    assert harness.classify_cli(job, code, b"{}", stderr, 0.1).status == status


def test_documented_nonzero_exit_passes_the_output_checks(tmp_path):
    # a fixed validation error: exit 1, message on stderr, nothing on stdout
    job = jobs.Job("fail-points-0", argv=("exponent",), expect=frozenset({1}))
    outcome = harness.classify_cli(job, 1, b"", "error: --points must be positive", 0.1)
    assert outcome.status == "ok"
    wl = jobs.Workload("cli-cold", jobs.DEFAULT_SEED, [job], {}, workdir=tmp_path)
    assert harness.check_outcomes(wl, {job.name: [outcome, outcome]}) == {}


def test_cold_child_memory_is_its_own(tmp_path):
    wl = jobs.build("cli-cold", 5, tmp_path)
    job = next(j for j in wl.jobs if j.name == "data-info")
    outcome = harness.run_cold(job, wl.workdir)
    assert outcome.status == "ok" and outcome.code == 0
    # a qpamp import needs tens of MB, far below the child's ceiling
    assert 10 < outcome.rss_mb < jobs.CHILD_AS_BYTES / 2**20 / 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
