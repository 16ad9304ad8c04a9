"""One pass of one workload in this (fresh) interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]

Needs the package on PYTHONPATH (run.py sets it to the checkout's src/).
Prints one JSON line: set-up and wall times, peak memory, operations,
failures, the stdout digest of every job and, with --trace, the per-layer
statistics of the span tracer.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# The fixed pure-Python loop behind host.calib_s, timed CALIB_SAMPLES times
# before the first job and after every job, outside the job times. It needs
# nothing from the package, so a change to the package cannot move it.
CALIB_ITERATIONS = 200_000
CALIB_SAMPLES = 2


def calibrate() -> list[float]:
    samples = []
    for _ in range(CALIB_SAMPLES):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return samples


def run_job(job, cli_main, verify_mod, span, untraced):
    """(stdout text, problems) for one job; problems is [] on success.

    A CLI job's stdout is checked under `untraced`, so the checks add no spans.
    """
    from workloads import check_cli_output

    try:
        if job.kind == "check":
            with span(f"verify.{job.check}"):
                fails = getattr(verify_mod, job.check)(**dict(job.kwargs))
            return json.dumps(fails), list(fails)
        buf = io.StringIO()
        code = 0
        with span("cli.main"), contextlib.redirect_stdout(buf):
            try:
                cli_main(list(job.argv), prog_name="torsion-bounds", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        if code:
            return buf.getvalue(), [f"exit code {code}"]
        with untraced():
            return buf.getvalue(), check_cli_output(job.argv, buf.getvalue())
    except Exception as exc:  # a job boundary: record the failure and go on
        traceback.print_exc(file=sys.stderr)
        return "", [f"raised {type(exc).__name__}: {exc}"]


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans of a traced pass as gzipped CSV")
    args = parser.parse_args()

    start = time.perf_counter()
    import torsion_bounds  # the import is part of set-up
    from torsion_bounds import bounds, charpoly, cli, verify

    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(torsion_bounds.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {torsion_bounds.__file__}, not the package under {src}")
    if "TORSION_BOUNDS_PRECISION" in os.environ:
        raise SystemExit("TORSION_BOUNDS_PRECISION must be unset for a cold run")
    for cache in (charpoly._cached_profile, bounds._homology_params, bounds._ktheory_params):
        if cache.cache_info().currsize:
            raise SystemExit(f"{cache.__name__} is not empty at the start of the run")
    digests = workloads.load_digests()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer else nullcontext
    untraced = tracer.paused if tracer else nullcontext

    outputs, problems = [], []
    failed = 0
    calib = calibrate()
    wall_s = 0.0  # the jobs and their checks, without the calibration between them
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        job_start = time.perf_counter()
        text, job_problems = run_job(job, cli.main, verify, span, untraced)
        out_digest = workloads.digest(text)
        if digests.get(job.key, out_digest) != out_digest:
            job_problems.append("stdout digest differs from the recorded one")
        if job_problems:
            failed += 1
            problems.append(f"{job.key}: {job_problems[0]}")
        outputs.append(out_digest)
        wall_s += time.perf_counter() - job_start
        calib += calibrate()

    import resource

    import mpmath
    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": time.process_time(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calib_s": calib,
        "ops": len(jobs),
        "failed": failed,
        "problems": problems,
        "digests": outputs,
        "env": {"mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__},
    }
    if tracer:
        stats = tracer.stats()
        stats["trace.coverage"] = stats.get("trace.attributed_s", 0.0) / wall_s
        result["stats"] = stats
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
