"""Closed-loop runner, set-up probes, machine record and metric assembly.

One run executes whole passes over the workload's job list, one job at a
time, and stops before a pass that would end after ``seconds``; every pass
does the same work, so the rates do not depend on where the clock ran out.
Checks run after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import jobs as jobs_mod
from . import spans

ROOT = jobs_mod.ROOT
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
IMPORT_PROBES = 5
CLI_TIMEOUT_S = 60.0
REPEAT_MISMATCH = "repeated executions returned different results"

_PROBE = """
import sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root)]
from perfbench import jobs
work = Path(tempfile.mkdtemp(dir=sys.argv[4]))
jobs.build(sys.argv[2], int(sys.argv[3]), work)
print("ready", flush=True)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# -- machine record ------------------------------------------------------------------


def machine_record() -> dict[str, Any]:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "load1_start": load,
        # a previous benchmark run leaves up to nproc of load behind; more
        # than that means other work shares the cores
        "busy_at_start": load > nproc,
    }


# -- job execution ---------------------------------------------------------------------


@dataclass
class Outcome:
    status: str  # "ok", "refused" or "failed"
    seconds: float
    result: Any = None
    reason: str = ""
    #: exit code of a CLI job
    code: int | None = None
    #: peak resident memory of a cli-cold job's own child process
    rss_mb: float = 0.0


def run_inprocess(job: jobs_mod.Job) -> Outcome:
    from qpamp.errors import CapacityError

    t0 = time.perf_counter()
    try:
        result = job.call()
    except CapacityError as exc:
        return Outcome("refused", time.perf_counter() - t0, reason=str(exc))
    except MemoryError:
        return Outcome("failed", time.perf_counter() - t0, reason="MemoryError")
    except Exception as exc:  # a crash of the job is a failure of the job
        return Outcome("failed", time.perf_counter() - t0, reason=repr(exc))
    return Outcome("ok", time.perf_counter() - t0, result=result)


def run_cold(job: jobs_mod.Job, workdir: Path) -> Outcome:
    """One fresh child; ``os.wait4`` reaps it and gives its own peak RSS.

    Output goes to unnamed files rather than pipes, so the child never
    blocks on a full pipe while this process waits for it.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            jobs_mod.child_argv(job.argv), cwd=workdir, env=child_env(), stdout=out, stderr=err
        )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
    if elapsed >= CLI_TIMEOUT_S:
        outcome = Outcome("failed", elapsed, reason="timed out")
    else:
        outcome = classify_cli(job, proc.returncode, stdout, stderr, elapsed)
    outcome.rss_mb = usage.ru_maxrss / 1024.0
    return outcome


def classify_cli(job, code: int, stdout: bytes, stderr: str, elapsed: float) -> Outcome:
    """Exit code and output against what the README documents for the job."""
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Outcome("failed", elapsed, reason=f"traceback, exit {code}: {last}", code=code)
    if code not in job.expect:
        return Outcome(
            "failed", elapsed, reason=f"exit {code}, expected {sorted(job.expect)}", code=code
        )
    if code == 3:
        return Outcome("refused", elapsed, reason=stderr.strip(), code=code)
    return Outcome("ok", elapsed, result=stdout, code=code)


def run_inprocess_cli(job: jobs_mod.Job, workdir: Path) -> Outcome:
    """The cli-cold job's argv through ``qpamp.cli.main`` in this process."""
    from qpamp import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:  # the in-process twin of a traceback exit
        err.write(traceback.format_exc())
        code = 1
    finally:
        elapsed = time.perf_counter() - t0
        os.chdir(here)
    return classify_cli(job, code, out.getvalue().encode(), err.getvalue(), elapsed)


# -- checks ------------------------------------------------------------------------------


def _same(a, b) -> bool:
    """Equal results; repr settles NaN fields, which never compare equal."""
    return a == b or repr(a) == repr(b)


def check_outcomes(wl: jobs_mod.Workload, outcomes: dict[str, list[Outcome]]) -> dict[str, str]:
    """Per-job, repeat and cross-job checks; job name -> failure reason.

    Every execution of a job must return the same result (the program is
    deterministic given its inputs and seeds); the first one is checked.  A
    CLI job that exits with a documented non-zero code prints nothing on
    standard output; for it the matching exit code is the whole check.
    """
    import hashlib

    expected = {}
    if wl.name == "cli-cold":
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    failures: dict[str, str] = {}
    firsts: dict[str, Any] = {}
    for job in wl.jobs:
        done = [o for o in outcomes.get(job.name, []) if o.status == "ok"]
        if not done:
            continue
        first = done[0].result
        if any(o.reason == REPEAT_MISMATCH for o in done[1:]):
            failures[job.name] = REPEAT_MISMATCH
            continue
        if wl.name == "cli-cold":
            if done[0].code != 0:
                continue
            try:
                doc = json.loads(first)
            except json.JSONDecodeError as exc:
                failures[job.name] = f"output is not JSON: {exc}"
                continue
            reason = job.check(doc) if job.check else None
            reason = reason or _check_expected(job, wl.seed, first, doc, expected, hashlib)
        else:
            doc = first
            reason = job.check(first) if job.check else None
        if reason:
            failures[job.name] = reason
        else:
            firsts[job.name] = doc
    for name, reason in wl.post_check(firsts).items():
        failures.setdefault(name, reason)
    return failures


def _check_expected(job, seed, raw: bytes, doc, expected, hashlib) -> str | None:
    """Stored sha256 / values: data-file jobs at every seed, seeded ones at the default."""
    if not (job.name.startswith("data-") or seed == jobs_mod.DEFAULT_SEED):
        return None
    if job.digest:
        want = expected["digests"].get(job.name)
        got = hashlib.sha256(raw).hexdigest()
        if want != got:
            return f"sha256 {got} differs from the stored {want}"
    if job.value_key:
        want = expected["values"].get(job.name)
        node = doc["result"]
        for key in job.value_key:
            node = node[key]
        if want is None or not abs(node - want) <= jobs_mod.VALUE_ATOL:
            return f"value {node!r} differs from the stored {want!r}"
    return None


# -- runs ----------------------------------------------------------------------------------


@dataclass
class PassLog:
    durations: list[float] = field(default_factory=list)
    outcomes: dict[str, list[Outcome]] = field(default_factory=dict)

    def executions(self) -> list[Outcome]:
        return [o for runs in self.outcomes.values() for o in runs]

    def add(self, name: str, outcome: Outcome) -> None:
        """Keep the first result of each job; later ones only as same or not.

        Holding every result would make memory grow with the number of
        passes, which would show in ``peak_rss_mb``.
        """
        runs = self.outcomes.setdefault(name, [])
        first = next((o for o in runs if o.status == "ok"), None)
        if first is not None and outcome.status == "ok":
            if not _same(first.result, outcome.result):
                outcome.reason = REPEAT_MISMATCH
            outcome.result = None
        runs.append(outcome)


def run_pass(wl: jobs_mod.Workload, log: PassLog | None, runner, tracer=None) -> float:
    t0 = time.perf_counter()
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = job.name
            with tracer.span("job"):
                outcome = runner(job)
        else:
            outcome = runner(job)
        if log is not None:
            log.add(job.name, outcome)
    elapsed = time.perf_counter() - t0
    if log is not None:
        log.durations.append(elapsed)
    return elapsed


def job_runner(wl: jobs_mod.Workload):
    if wl.name == "cli-cold":
        return lambda job: run_cold(job, wl.workdir)
    return run_inprocess


def timed_passes(wl, seconds: float, runner, reserve: float = 0.0) -> PassLog:
    """Whole passes until the next one would end after ``seconds`` (at least one)."""
    log = PassLog()
    start = time.perf_counter()
    while True:
        last = run_pass(wl, log, runner)
        if time.perf_counter() - start + last + reserve * last > seconds:
            return log


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to first job: import qpamp, build and validate inputs."""
    times = []
    with tempfile.TemporaryDirectory(dir=WORK) as probe_dir:
        for i in range(SETUP_PROBES + 1):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", _PROBE, str(ROOT), workload, str(seed), probe_dir],
                stdout=subprocess.PIPE,
                env=child_env(),
            )
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
            if i:  # the first probe also compiles bytecode; it is not counted
                times.append(elapsed)
    return times


def import_seconds() -> float:
    """Median fresh ``import qpamp.cli`` minus median bare interpreter start."""

    def median_run(code: str) -> float:
        times = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return median_run("import qpamp.cli") - median_run("pass")


def peak_rss_mb(wl: jobs_mod.Workload, log: PassLog) -> float:
    """This process's peak; for cli-cold the largest job child that completed or was refused.

    A cli-cold child that failed is left out (a crash at the memory ceiling
    would report the ceiling), and so are the set-up and import probes.
    """
    if wl.name != "cli-cold":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(
        (o.rss_mb for o in log.executions() if o.status in ("ok", "refused")), default=0.0
    )


def failed_child_rss_mb(log: PassLog) -> dict[str, float]:
    """Peak RSS of each cli-cold job whose child failed, recorded apart from ``peak_rss_mb``."""
    out: dict[str, float] = {}
    for name, runs in log.outcomes.items():
        for o in runs:
            if o.status == "failed" and o.rss_mb:
                out[name] = max(out.get(name, 0.0), o.rss_mb)
    return out


def untraced_run(wl: jobs_mod.Workload, seconds: float, setup: list[float]) -> dict[str, Any]:
    runner = job_runner(wl)
    if wl.name != "cli-cold":
        run_inprocess(wl.jobs[0])  # warm-up, untimed
    log = timed_passes(wl, seconds, runner)
    executions = log.executions()
    failures = check_outcomes(wl, log.outcomes)
    ok = [
        o.seconds * 1e3
        for name, runs in log.outcomes.items()
        for o in runs
        if o.status == "ok" and name not in failures
    ]
    failed = sum(
        1
        for name, runs in log.outcomes.items()
        for o in runs
        if o.status == "failed" or (o.status == "ok" and name in failures)
    )
    refused = sum(1 for o in executions if o.status == "refused")
    timed = sum(log.durations)
    n = len(executions)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "jobs_per_s": (len(ok) / timed, "1/s", len(ok)),
        "job_ms_p50": (statistics.median(ok) if ok else 0.0, "ms", len(ok)),
        "job_ms_p90": (quantile(ok, 90), "ms", len(ok)),
        "fail_frac": (failed / n, "frac", n),
        "refused_frac": (refused / n, "frac", n),
        "peak_rss_mb": (peak_rss_mb(wl, log), "MB", 1),
    }
    return {
        "metrics": metrics,
        "passes": len(log.durations),
        "pass_s": log.durations,
        **job_counts(log, failures),
        "job_ms": {
            name: statistics.median(o.seconds * 1e3 for o in runs)
            for name, runs in log.outcomes.items()
        },
        "job_failures": _failure_list(log, failures),
        "failed_child_rss_mb": failed_child_rss_mb(log),
        "check_failures": failures,
    }


def job_counts(log: PassLog, failures: dict[str, str]) -> dict[str, int]:
    """Distinct jobs attempted, and those that failed in any pass or check.

    Every pass runs the same job list, so these do not grow with the number
    of passes a faster program fits into the run.
    """
    failed = {
        name
        for name, runs in log.outcomes.items()
        if name in failures or any(o.status == "failed" for o in runs)
    }
    return {"attempted": len(log.outcomes), "failed": len(failed)}


def _failure_list(log: PassLog, failures: dict[str, str]) -> dict[str, str]:
    out = {}
    for name, runs in log.outcomes.items():
        for o in runs:
            if o.status == "failed":
                out.setdefault(name, o.reason)
            elif o.status == "refused":
                out.setdefault(name, "refused: " + o.reason)
    out.update(failures)
    return out


def traced_run(wl: jobs_mod.Workload, seconds: float) -> dict[str, Any]:
    """Untraced passes, then one traced pass; per-layer metrics from its spans.

    A last pass over the jobs that enumerated exactly runs them under
    tracemalloc for ``simulate.exact_peak_mb``.

    For cli-cold the layers run in child processes, so the traced pass runs
    each job's argv through ``qpamp.cli.main`` in this process, next to an
    untraced in-process pass that gives the tracing overhead and, against the
    cold pass, the per-process overhead.
    """
    runner = job_runner(wl)
    rates = spans.reference_rates()
    import_s = import_seconds()
    if wl.name != "cli-cold":
        run_inprocess(wl.jobs[0])  # warm-up, untimed
    log = timed_passes(wl, seconds, runner, reserve=3.0)
    untraced_s = statistics.median(log.durations)
    inproc = [j for j in wl.jobs if not j.cold_only]
    traced_wl = jobs_mod.Workload(wl.name, wl.seed, inproc, wl.inputs, workdir=wl.workdir)
    extra: dict[str, float] = {"cli.process_overhead_ms": 0.0}
    if wl.name == "cli-cold":
        runner = lambda job: run_inprocess_cli(job, wl.workdir)  # noqa: E731
        in_log = PassLog()
        untraced_s = run_pass(traced_wl, in_log, runner)
        gaps = [
            (log.outcomes[j.name][0].seconds - in_log.outcomes[j.name][0].seconds) * 1e3
            for j in inproc
        ]
        extra["cli.process_overhead_ms"] = statistics.mean(gaps)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("pass") as root:
            run_pass(traced_wl, None, runner, tracer)
    finally:
        tracer.uninstall()
    traced_s = root.duration
    metrics = spans.layer_metrics(tracer.spans, rates, per_job_scope=wl.name == "cli-cold")
    exact_jobs = {s.job for s in tracer.spans if s.name == "simulate.exact"}
    memory = spans.Tracer()
    memory.install(memory=True)
    try:
        for job in traced_wl.jobs:
            if job.name in exact_jobs:
                runner(job)
    finally:
        memory.uninstall()
    metrics["simulate.exact_peak_mb"] = spans.peak_mb(memory.spans)
    metrics["cli.import_s"] = import_s
    metrics.update(extra)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    failures = check_outcomes(wl, log.outcomes)
    return {
        "metrics": metrics,
        "spans": tracer.spans,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "passes": len(log.durations),
        **job_counts(log, failures),
        "job_failures": _failure_list(log, failures),
        "check_failures": failures,
    }


def write_spans(path: Path, recorded: list[spans.Span]) -> None:
    """Spans as JSON lines: name, start, end, parent index, job, thread, info."""
    import gzip

    index = {id(s): i for i, s in enumerate(recorded)}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in recorded:
            parent = index.get(id(s.parent)) if s.parent is not None else None
            fh.write(json.dumps([s.name, s.start, s.end, parent, s.job, s.thread, s.info]))
            fh.write("\n")


def fresh_workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
