"""Write expected.json: the exit code and canonical-JSON SHA-256 of every
CLI-shaped job, and the dimension of every sweep solve, over all
workloads including the smoke variants.

    python3 perfbench/record.py

Only for a deliberate change of the package's output.  A job whose exit
code is not 0, whose report has a failed claim, or whose dimension
disagrees with KNOWN_DIMS is refused, and nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (puts src/ on the import path and checks it)
from workloads import EXPECTED_PATH, WORKLOADS, call_job

# Reference dimensions of the fully-constrained variant (ad1,ad2,ad3) at
# n = 4, by d; the module variant (ad1,ad3) always has dimension n^2.
# Other points are recorded as solved.
KNOWN_DIMS = {(4, 1): 4, (4, 2): 8, (4, 4): 4}


def main() -> int:
    expected: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        out_path = str(Path(tmp) / "out.json")
        for workload in WORKLOADS.values():
            for job in workload.jobs:
                if job.id in expected:
                    continue
                result = call_job(job, out_path)
                if job.solve is not None:
                    n, d, _, conditions = job.solve
                    want = n * n if conditions == "ad1,ad3" else KNOWN_DIMS.get((n, d), result.dim)
                    if result.dim != want:
                        print(f"refused {job.id}: dimension {result.dim}, expected {want}")
                        return 1
                    expected[job.id] = {"dim": result.dim}
                    continue
                data = Path(out_path).read_bytes()
                failed = [c for c in json.loads(data)["report"]["claims"] if c["status"] == "fail"]
                if result != 0 or failed:
                    print(f"refused {job.id}: exit {result}, {len(failed)} failed claims")
                    return 1
                expected[job.id] = {"exit": 0, "sha256": hashlib.sha256(data).hexdigest()}
                print(f"recorded {job.id}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
