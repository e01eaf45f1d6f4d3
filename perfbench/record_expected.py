"""Write perfbench/expected.json: the cli-cold outputs at the default seed.

Seeded ``simulate``, ``info`` and wiretap-leakage JSON is stored as a sha256
(it must stay bit-identical); exponent-like values are stored as numbers and
compared by tolerance.  Run from the root of a checkout, only when an output
is meant to change::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, jobs  # noqa: E402


def main() -> int:
    workdir = harness.fresh_workdir()
    digests, values = {}, {}
    try:
        wl = jobs.build("cli-cold", jobs.DEFAULT_SEED, workdir)
        for job in wl.jobs:
            if not (job.digest or job.value_key):
                continue
            out = harness.run_cold(job, workdir)
            if out.status != "ok":
                print(f"error: {job.name}: {out.status} {out.reason}", file=sys.stderr)
                return 1
            if job.digest:
                digests[job.name] = hashlib.sha256(out.result).hexdigest()
            if job.value_key:
                node = json.loads(out.result)["result"]
                for key in job.value_key:
                    node = node[key]
                values[job.name] = node
    finally:
        harness.remove_workdir(workdir)
    path = ROOT / "perfbench" / "expected.json"
    doc = {"seed": jobs.DEFAULT_SEED, "digests": digests, "values": values}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests and {len(values)} values to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
