"""qpamp benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exponent-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes the traced run and reports the per-layer metrics.
``--workload all`` runs every workload in its own interpreter and prints one
table.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(machine, failures, every metric with its sample count) goes to
``.perfbench_out/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.jobs import ROOT, WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def run_one(args) -> int:
    from perfbench import harness, jobs

    machine = harness.machine_record()
    workdir = harness.fresh_workdir()
    try:
        setup = [] if args.trace else harness.measure_setup(args.workload, args.seed)
        wl = jobs.build(args.workload, args.seed, workdir)
        if args.trace:
            res = harness.traced_run(wl, args.seconds)
        else:
            res = harness.untraced_run(wl, args.seconds, setup)
    finally:
        harness.remove_workdir(workdir)
    machine["load1_end"] = os.getloadavg()[0]

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace:
        # every per-layer value comes from the one traced pass
        values = {name: (v, None, 1) for name, v in res["metrics"].items()}
    else:
        values = res["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    shown = {name: (v, units.get(name, unit), n) for name, (v, unit, n) in values.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    harness.OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": res["passes"],
        "pass_s": res.get("pass_s", []),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in shown.items()},
        "failures": res["job_failures"],
        "failed_child_rss_mb": res.get("failed_child_rss_mb", {}),
        "job_ms_median": res.get("job_ms", {}),
    }
    if args.trace:
        harness.write_spans(harness.OUT / f"spans-{tag}.jsonl.gz", res["spans"])
        record["traced_s"], record["untraced_s"] = res["traced_s"], res["untraced_s"]
    (harness.OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    busy = " BUSY" if machine["busy_at_start"] else ""
    print(
        f"# machine: nproc={machine['nproc']} blas={machine['blas']} "
        f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']} "
        f"load1 {machine['load1_start']:.2f} -> {machine['load1_end']:.2f}{busy}"
    )
    print(f"# {args.workload}: {res['passes']} passes, closed loop, 1 client")
    for name, (value, unit, n) in shown.items():
        print(f"{args.workload:15s} {name:32s} {value:14.6g} {unit or '':8s} n={n}")
    for name, reason in record["failures"].items():
        print(f"# {name}: {reason}")
    result = {
        "correct": not res["check_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table and one JSON line."""
    from perfbench import harness

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        tag = f"{workload}-seed{args.seed}-trace{args.trace}"
        record = json.loads((harness.OUT / f"result-{tag}.json").read_text())
        for name, m in record["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"], m["samples"]))
            combined["metrics"][f"{workload}/{name}"] = {"value": m["value"], "unit": m["unit"]}
    print("# summary")
    for workload, name, value, unit, n in rows:
        print(f"{workload:15s} {name:32s} {value:14.6g} {unit or '':8s} n={n}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qpamp" / "__init__.py").is_file():
        print(f"error: no qpamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qpamp

    if Path(qpamp.__file__).resolve().parent != ROOT / "src" / "qpamp":
        print(f"error: imported qpamp from {qpamp.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
