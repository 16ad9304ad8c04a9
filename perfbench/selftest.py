"""Self-test of the benchmark at tiny sizes (PERFBENCH_TINY=1).

Usage, from the repository root: python3 perfbench/selftest.py

Checks that
- every metric of BENCHMARK.json is emitted with its unit, in untraced and
  traced runs, and every output check passes;
- the exact counts repeat exactly across two traced passes;
- the span self-times sum to the attributed time, which covers at least 90%
  of the traced wall time and never more than all of it;
- a job's in-process stdout is byte-identical to the real CLI's;
- the benchmark fails, printing no result, without the package beside it.
Takes about ten seconds.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
os.environ["PERFBENCH_TINY"] = "1"  # before workloads is imported, here and in every child

from run import worker_env  # noqa: E402
from workloads import BOUND_JOB, HELD_OUT_SEED, digest  # noqa: E402

# exact work counts: equal on every pass with the same inputs
EXACT = (
    "charpoly.root_profile.calls",
    "charpoly.profile_for_exponent.calls",
    "charpoly.certified_phi.bits_total",
    "dgl_fp.elim.cells",
    "dgl_fp.FreeDgl.expansion.calls",
    "bounds.f_q.calls",
    "combinat.mobius.calls",
)
LAYERS = ("charpoly", "lie_rank", "dgl_fp", "bounds", "spaces", "render", "cli", "combinat", "verify")


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced_pass(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(HELD_OUT_SEED), "--trace"],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(out.stdout)


def test_metrics_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, result)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_counts_and_self_times() -> None:
    for workload in ("bound-tables", "fp-oracle", "verify-all"):
        first, second = traced_pass(workload), traced_pass(workload)
        for name in EXACT:
            assert first["stats"].get(name) == second["stats"].get(name), (workload, name)
        assert first["digests"] == second["digests"], workload
        stats = first["stats"]
        layer_sum = sum(stats.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        assert abs(layer_sum - stats["trace.attributed_s"]) < 1e-6, (workload, layer_sum)
        assert 0.9 <= stats["trace.attributed_s"] / first["wall_s"] <= 1.0, (workload, stats["trace.coverage"])


def test_in_process_stdout_matches_cli() -> None:
    bound = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "bound-tables", "--seed", "0"],
        capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=170, check=True,
    )
    cli = subprocess.run(
        [sys.executable, "-m", "torsion_bounds.cli", *BOUND_JOB.argv],
        capture_output=True, env=worker_env(), cwd=ROOT, timeout=170, check=True,
    )
    assert json.loads(bound.stdout)["digests"][1] == hashlib.sha256(cli.stdout).hexdigest()
    assert digest(cli.stdout.decode()) == hashlib.sha256(cli.stdout).hexdigest()


def test_fails_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fp-oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, env=env, timeout=170,
        )
    assert out.returncode != 0 and '"correct"' not in out.stdout, out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for test in (test_fails_without_package, test_in_process_stdout_matches_cli, test_counts_and_self_times):
        test()
        print(f"ok {test.__name__}", flush=True)
    test_metrics_emitted(spec)
    print("ok test_metrics_emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
