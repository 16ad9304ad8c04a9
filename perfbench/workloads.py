"""Workload definitions: inputs drawn from a seed, and the checks on outputs.

A workload is a list of jobs run one after another in one fresh process
(a closed loop with one client). A job is either a CLI invocation, run
in-process through ``torsion_bounds.cli.main``, or one registered check of
``torsion_bounds.verify.SUITES``.

Seed 0 is the default: it reproduces the reference invocations named in
each workload's docstring. Any other seed draws the inputs from the pools
below with ``random.Random(seed)``. The pools hold only inputs of one cost
class, so the seed changes the numbers computed but not the amount of work.

This module imports nothing from ``torsion_bounds`` at import time; the
worker imports the package itself so that the import is part of set-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

DEFAULT_SEED = 0
# Used by later changes to confirm a claim on inputs not seen while writing it.
HELD_OUT_SEED = 1729

DIGESTS_FILE = Path(__file__).with_name("digests.json")

REPORT_FIELDS = ["degree", "bound", "exact_rank", "theorem", "vacuous", "precision_bits"]

# The pools hold inputs of one cost class each, measured interleaved in one
# process. Inputs that move the cost are held fixed instead: the homology q
# (q = 4 costs 1.6 times q = 2), the dgl prime (p = 5 and 7 cost 1.14 times
# p = 3), the K-theory prime (p > 3 raises the exponent budget 8(p-1)^2 g) and
# the unitary entries (z^5 - z^2 - 1 with g' = 1).
#
# K-theory entries sharing the generator set 2:1,4:1 (polynomial z^4 - z^2 - 1)
# and g' = 2 at p = 3, each with another dimension, so each gives another table.
KTHEORY_POOL = (
    ("grassmannian", (("n", 3), ("k", 1))),
    ("grassmannian", (("n", 4), ("k", 1))),
    ("grassmannian", (("n", 4), ("k", 2))),
    ("grassmannian", (("n", 5), ("k", 2))),
    ("grassmannian", (("n", 6), ("k", 2))),
    ("grassmannian", (("n", 6), ("k", 3))),
    ("milnor-hypersurface", (("n", 2), ("l", 4))),
    ("milnor-hypersurface", (("n", 3), ("l", 5))),
)
# two-generator sets with g = 1 whose dominant roots lie in [1.32, 1.39]; the
# PBW series costs more as phi grows (1:1,2:1 takes a quarter longer)
GENERATOR_POOL = ("2:1,3:1", "1:1,5:1", "1:1,4:1")

# PERFBENCH_TINY=1 shrinks every workload for the self-test (selftest.py)
TINY = os.environ.get("PERFBENCH_TINY") == "1"
REPORT_UPTO, BOUND_UPTO, DGL_UPTO, LIE_RANK_UPTO = (300, 150, 9, 60) if TINY else (3000, 1500, 18, 500)
# the verify checks a tiny run keeps: cheap ones from every suite, two of them seeded
TINY_CHECKS = (
    "check_divisor_closure",
    "check_newton_root_agreement",
    "check_g_divisibility",
    "check_graded_jacobi",
    "check_rank_nullity",
    "check_condition_star_minimality",
    "check_report_vs_boundary_oracle",
)


@dataclass(frozen=True)
class Job:
    """One operation: a CLI argv, or a verify check name with its kwargs."""

    kind: str  # "cli" | "check"
    argv: tuple[str, ...] = ()
    check: str = ""
    kwargs: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> str:
        if self.kind == "cli":
            return " ".join(self.argv)
        return f"{self.check}({json.dumps(dict(self.kwargs), sort_keys=True)})"


def _rng(seed: int) -> random.Random | None:
    return None if seed == DEFAULT_SEED else random.Random(seed)


def report_job(space: str, params: tuple) -> Job:
    argv = ["report", "--space", space]
    for name, value in params:
        argv += [f"--{name}", str(value)]
    return Job("cli", (*argv, "--p", "3", "--upto", str(REPORT_UPTO)))


BOUND_JOB = Job("cli", ("bound", "--homology", "--q", "2", "--p", "3", "--upto", str(BOUND_UPTO)))
DGL_JOB = Job("cli", ("dgl", "--q", "1", "--p", "3", "--upto", str(DGL_UPTO)))


def lie_rank_job(degrees: str) -> Job:
    return Job("cli", ("lie-rank", "--degrees", degrees, "--upto", str(LIE_RANK_UPTO), "--oracle-check"))


def cli_job_pool() -> list[Job]:
    """Every CLI job any seed can draw; digests.json records each one."""
    return (
        [report_job(space, params) for space, params in KTHEORY_POOL]
        + [BOUND_JOB, DGL_JOB]
        + [lie_rank_job(degrees) for degrees in GENERATOR_POOL]
    )


def _draw(rng: random.Random | None, pool: tuple):
    return pool[0] if rng is None else rng.choice(pool)


def bound_tables_jobs(seed: int) -> list[Job]:
    """report --space grassmannian --n 3 --k 1 --p 3 --upto 3000, then
    bound --homology --q 2 --p 3 --upto 1500 (seed 0).

    Why: the paper's headline output, through cli.main so that cli and
    render are on the measured path. Each table has one polynomial, refined
    at about 70 rising precisions, so profile reuse, bisection and
    high-precision bounds arithmetic carry the run. No dgl_fp or lie_rank
    code runs.
    """
    rng = _rng(seed)
    space, params = _draw(rng, KTHEORY_POOL)
    return [report_job(space, params), BOUND_JOB]


def fp_oracle_jobs(seed: int) -> list[Job]:
    """dgl --q 1 --p 3 --upto 18, then
    lie-rank --degrees 2:1,3:1 --upto 500 --oracle-check (seed 0).

    Why: the brute-force oracles: exact F_p elimination, Lyndon basis and
    expansion, and the dense PBW series, with no mpmath work. A charpoly or
    bounds change must show nothing here.
    """
    return [DGL_JOB, lie_rank_job(_draw(_rng(seed), GENERATOR_POOL))]


# the registered seeds of the seeded checks; seed 0 keeps them
SEEDED_CHECKS = (
    "check_graded_jacobi",
    "check_boundary_equals_fq",
    "check_bezout_coverage",
    "check_condition_star_minimality",
)


def verify_all_jobs(seed: int) -> list[Job]:
    """Every check of verify.SUITES with its registered kwargs; equals
    `verify --suite all` at seed 0. One op is one check.

    Why: it uses charpoly the opposite way from bound-tables. It builds
    hundreds of root profiles over distinct small polynomials at 160 bits,
    so no profile is reused and Aberth dominates; it also makes many small
    bounds, bezout_cover and combinat calls. A change that speeds refinement
    but slows a cold profile build shows here.
    """
    from torsion_bounds.verify import SUITES

    rng = _rng(seed)
    jobs = []
    for entries in SUITES.values():
        for _, fn, kwargs in entries:
            if TINY and fn.__name__ not in TINY_CHECKS:
                continue
            kwargs = dict(kwargs)
            if rng is not None and fn.__name__ in SEEDED_CHECKS:
                kwargs["seed"] = rng.randrange(1, 2**31)
            jobs.append(Job("check", check=fn.__name__, kwargs=tuple(sorted(kwargs.items()))))
    return jobs


WORKLOADS = {
    "bound-tables": bound_tables_jobs,
    "fp-oracle": fp_oracle_jobs,
    "verify-all": verify_all_jobs,
}


# -- output checks ------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def _csv_rows(text: str, fields: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != fields:
        raise ValueError(f"header {reader.fieldnames} != {fields}")
    return list(reader)


def _check_bound_rows(rows: list[dict], degrees: list[int], theorems: set[str]) -> list[str]:
    problems = []
    if [int(r["degree"]) for r in rows] != degrees:
        problems.append("degree column differs from the requested range")
    for r in rows:
        try:
            bound = Decimal(r["bound"])
        except InvalidOperation:
            problems.append(f"degree {r['degree']}: bound {r['bound']!r} is not a decimal")
            continue
        if r["theorem"] not in theorems:
            problems.append(f"degree {r['degree']}: unexpected theorem {r['theorem']}")
        if r["vacuous"] != ("true" if bound <= 0 else "false"):
            problems.append(f"degree {r['degree']}: vacuous flag disagrees with the bound sign")
        if int(r["precision_bits"]) < 64:
            problems.append(f"degree {r['degree']}: precision below 64 bits")
    return problems[:5]


def check_cli_output(argv: tuple[str, ...], text: str) -> list[str]:
    """Seed-independent checks on one CLI job's stdout; [] when it passes."""
    opts = {tok: val for tok, val in zip(argv, argv[1:]) if tok.startswith("--")}
    try:
        if argv[0] == "report":
            rows = _csv_rows(text, REPORT_FIELDS)
            degrees = [m for m in range(2, int(opts["--upto"]) + 1, 2) for _ in (0, 1)]
            return _check_bound_rows(rows, degrees, {"ktheory_guaranteed", "ktheory_weak"})
        if argv[0] == "bound":
            rows = _csv_rows(text, REPORT_FIELDS)
            return _check_bound_rows(rows, list(range(2, int(opts["--upto"]) + 1)), {"homology_boundary"})
        if argv[0] == "dgl":
            return _check_dgl(_csv_rows(text, ["degree", "dim", "cycles", "boundaries", "homology"]), opts)
        if argv[0] == "lie-rank":
            rows = _csv_rows(text, ["N", "rank"])
            if [int(r["N"]) for r in rows] != list(range(1, int(opts["--upto"]) + 1)):
                return ["N column differs from 1..upto"]
            return [f"negative rank at N={r['N']}" for r in rows if int(r["rank"]) < 0][:5]
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]
    return [f"no check for subcommand {argv[0]}"]


def _check_dgl(rows: list[dict], opts: dict) -> list[str]:
    """Basis counts equal the exact ranks, and rank-nullity holds per degree."""
    from torsion_bounds.charpoly import GeneratorSet
    from torsion_bounds.lie_rank import babenko_ranks

    q, upto = int(opts["--q"]), int(opts["--upto"])
    ranks = babenko_ranks(GeneratorSet.of((q, 1), (q + 1, 1)), upto)
    problems = []
    prev_b = 0
    for n, r in enumerate(rows, start=1):
        dim, z, b, h = (int(r[k]) for k in ("dim", "cycles", "boundaries", "homology"))
        if int(r["degree"]) != n or dim != ranks[n - 1]:
            problems.append(f"degree {n}: dim {dim} != exact rank {ranks[n - 1]}")
        if z + prev_b != dim or h != z - b or h < 0:
            problems.append(f"degree {n}: rank-nullity fails")
        prev_b = b
    if len(rows) != upto:
        problems.append(f"{len(rows)} rows, expected {upto}")
    return problems[:5]
