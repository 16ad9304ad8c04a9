"""Record the sha256 of the real CLI's stdout for every job a seed can draw.

Usage, from the repository root: python3 perfbench/record_digests.py

Runs each job as `python -m torsion_bounds.cli ...` in its own process and
rewrites perfbench/digests.json. Run it only when the output is meant to
change; the benchmark counts any other difference as a failed operation.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TORSION_BOUNDS_PRECISION", None)
    digests = {}
    for job in workloads.cli_job_pool():
        proc = subprocess.run(
            [sys.executable, "-m", "torsion_bounds.cli", *job.argv],
            capture_output=True,
            env=env,
            check=True,
            timeout=600,
        )
        digests[job.key] = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digests[job.key][:16]}  {job.key}", flush=True)
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
