"""Cold-process benchmark of torsion_bounds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bound-tables --seed 0 --seconds 30 --trace 0

Each pass runs the whole workload in a fresh single-threaded interpreter
(perfbench/worker.py), with the package imported from the checkout's src/.
Passes repeat until --seconds have passed, and at least MIN_PASSES times.
With --trace 0 every pass is untraced and the end-to-end metrics are the
medians over passes. With --trace 1 untraced and traced passes alternate
and the per-layer metrics come from the traced ones. Metric names and units
are read from BENCHMARK.json. The last line of stdout is one JSON object:
correct, attempted, failed, metrics. A record of every pass is written to
.perfbench/ in the checkout.

wall_s and setup_s are rescaled to a reference host speed. The speed of a
shared host drifts by up to 1.5x over minutes, which medians over one run
cannot remove. Each pass therefore also times a fixed pure-Python loop
before its first job and after every job (calib_s), and the run's median
times are multiplied by REFERENCE_CALIB_S / median(calib_s). The raw
medians are printed, recorded, and reported as run.wall_raw_s and
run.setup_raw_s.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
# calib_s of the reference host speed, about the median state of the 2-vCPU VM
# of the first record
REFERENCE_CALIB_S = 0.02
# no pass starts after this many seconds, so the run ends well within 180 s
LAST_START_S = 120.0
PASS_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TORSION_BOUNDS_PRECISION", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, spans: Path | None, timeout: float) -> dict:
    """One pass in a fresh interpreter, traced when `spans` names the span file."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return {"crashed": f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((SRC / "torsion_bounds").glob("*.py")))


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def median_calib(passes: list[dict]) -> float:
    return statistics.median(s for p in passes for s in p["calib_s"])


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes, plus the run-level context metrics."""
    stats: dict[str, float] = {}
    for name in {k for p in traced for k in p["stats"]}:
        stats[name] = statistics.median(p["stats"].get(name, 0.0) for p in traced)
    lookups = stats.get("charpoly.profile_for_exponent.calls", 0)
    rebuilds = stats.get("charpoly.root_profile.calls", 0)
    stats["charpoly.profile.hit_ratio"] = 1 - rebuilds / lookups if lookups else 0.0
    wall_untraced = statistics.median(p["wall_s"] for p in untraced)
    stats["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_untraced
    stats["run.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    stats["run.wall_raw_s"] = wall_untraced
    stats["run.setup_raw_s"] = statistics.median(p["setup_s"] for p in untraced)
    stats["host.calib_s"] = median_calib(untraced + traced)
    stats["src.lines"] = src_lines()
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of torsion_bounds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "torsion_bounds" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/torsion_bounds package or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        untraced_done = sum(not t for t, _ in passes)
        traced_done = len(passes) - untraced_done
        enough = untraced_done >= MIN_PASSES if not args.trace else min(untraced_done, traced_done) >= 1
        if (enough and elapsed >= args.seconds) or elapsed >= LAST_START_S:
            break
        traced = bool(args.trace) and untraced_done > traced_done
        spans = OUT_DIR / f"{stem}.spans.csv.gz" if traced else None
        result = run_pass(args.workload, args.seed, spans, PASS_TIMEOUT_S - elapsed)
        passes.append((traced, result))
        if "crashed" in result:
            break

    crashed = [r["crashed"] for _, r in passes if "crashed" in r]
    good = [(t, r) for t, r in passes if "crashed" not in r]
    untraced = [r for t, r in good if not t]
    traced = [r for t, r in good if t]
    ops_per_pass = max((r["ops"] for _, r in good), default=1)
    attempted = ops_per_pass * len(passes)
    failed = sum(r["failed"] for _, r in good) + ops_per_pass * len(crashed)
    same_output = len({tuple(r["digests"]) for _, r in good}) <= 1
    correct = not crashed and failed == 0 and same_output and bool(untraced) and (bool(traced) or not args.trace)

    values: dict[str, float] = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values = per_layer(untraced, traced)
        else:
            scale = REFERENCE_CALIB_S / median_calib(untraced)
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in untraced) * scale,
                "setup_s": statistics.median(r["setup_s"] for r in untraced) * scale,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                "ops": ops_per_pass,
            }
    names = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": commit(),
            "src.lines": src_lines(),
            **(good[0][1]["env"] if good else {}),
        },
        "correct": correct,
        "problems": crashed + [p for _, r in good for p in r["problems"]] + ([] if same_output else ["stdout digests differ between passes"]),
        "metrics": metrics,
        "passes": [{"traced": t, **{k: v for k, v in r.items() if k != "stats"}} for t, r in passes],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["env"].items():
        print(f"# {key}: {value}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced in {time.perf_counter() - start:.1f} s")
    if untraced:
        print(f"# raw medians: wall_s {statistics.median(r['wall_s'] for r in untraced)}, "
              f"setup_s {statistics.median(r['setup_s'] for r in untraced)}, calib_s {median_calib(untraced)}")
    for problem in record["problems"][:10]:
        print(f"# problem: {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
