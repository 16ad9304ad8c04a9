"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; timing limits are asserted where the criterion states one.
"""

import time

from mpmath import mp, mpf

from click.testing import CliRunner

from torsion_bounds import GeneratorSet, WeightedAlphabet, subspace_dims
from torsion_bounds.bounds import f_q, homology_params
from torsion_bounds.cli import main
from torsion_bounds.verify import (
    check_basis_certification,
    check_bezout_coverage,
    check_cycle_elements,
    check_closed_form_specializations,
    check_differential_squares_to_zero,
    check_graded_jacobi,
    check_newton_growth,
    check_oracle_equivalence,
    check_phi_window,
    check_rank_window,
    check_report_vs_boundary_oracle,
    generator_family,
)

MOORE_D = {"x": "y", "y": None}


def _report(num, label, fails, elapsed=None, limit=None):
    status = "PASS" if not fails else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:2d} {status}: {label}{timing}")
    assert not fails, fails[:5]
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    fails = check_oracle_equivalence(max_sum_m=3, max_q=5, n_max=40)
    _report(1, "rank formula == series oracle (sum m <= 3, q_l <= 5, N <= 40)",
            fails, time.time() - t0, 10.0)


def test_criterion_02_basis_certification():
    t0 = time.time()
    fails = check_basis_certification(qs=(2, 3), ps=(3, 5), up_to=14)
    _report(2, "basis sizes == exact ranks (q in {2,3}, p in {3,5}, degree <= 14)",
            fails, time.time() - t0, 60.0)


def test_criterion_03_differential_soundness():
    t0 = time.time()
    fails = check_differential_squares_to_zero(qs=(2, 3), ps=(3, 5), up_to=14)
    fails += check_graded_jacobi(samples=200, seed=20241)
    _report(3, "d^2 = 0 up to degree 14 and graded Jacobi on 200 triples",
            fails, time.time() - t0, 60.0)


def test_criterion_04_cycle_elements():
    fails = check_cycle_elements(q=3, p=3)
    _report(4, "d(tau_1(x)) = 0 and d(sigma_1(x)) = 0 over F_3, q = 3", fails)


def test_criterion_05_rank_window():
    fails = check_rank_window(n_max=60, rel_slack=1e-6)
    _report(5, "exact ranks inside the approximation window, N <= 60", fails)


def test_criterion_06_newton_growth():
    family = generator_family(3, 5)
    assert GeneratorSet.of((2, 1), (4, 1)) in family  # the g = 2 case is covered
    fails = check_newton_growth(n_max=60, rel_slack=1e-6, family=family)
    _report(6, "Newton power-sum growth inequalities, N <= 60 (incl. g = 2)", fails)


def test_criterion_07_boundary_bound():
    fails = []
    for q in (2, 3):
        dims = subspace_dims(WeightedAlphabet.moore(q), MOORE_D, 3, 14)
        for n in range(2, 15):
            bound = f_q(q, n)
            if not bound <= 0:
                fails.append(f"q={q}, N={n}: bound unexpectedly non-vacuous at desk scale")
            if not mpf(dims["boundaries"][n - 1]) >= bound:
                fails.append(f"q={q}, N={n}: brute-force B_N below the guaranteed bound")
    _report(7, "brute-force dim B_N >= guaranteed bound (vacuous but asserted), N <= 14", fails)


def test_criterion_08_fq_properties():
    fails = check_phi_window(q_max=100, margin=1e-9)
    thresholds = {}
    eps = 0.1
    for q in (2, 3, 4):
        params = homology_params(q, 400)
        with mp.workprec(params.precision_bits):
            phi = params.phi
            n0 = None
            for n in range(2, 401):
                mid = (1 - eps) * (1 - 1 / phi) * phi**n / n
                low = (1 - eps) * (1 - mpf(2) ** (-mpf(1) / (q + 1))) * mpf(2) ** (mpf(n) / (q + 1)) / n
                if f_q(q, n) >= mid and mid > low:
                    if n0 is None:
                        n0 = n
                else:
                    n0 = None
            if n0 is None:
                fails.append(f"q={q}: no chain threshold N0 <= 400")
            thresholds[q] = n0
    if thresholds.get(2) != 118 or thresholds.get(3) != 179 or thresholds.get(4) != 244:
        fails.append(f"scanned thresholds moved: {thresholds} != {{2: 118, 3: 179, 4: 244}}")
    _report(8, "phi window (q <= 100) and f_q asymptotic chain up to N = 400", fails)


def test_criterion_09_bezout_coverage():
    t0 = time.time()
    fails = check_bezout_coverage(samples=100, seed=11)
    _report(9, "covering certificates: worked example + 100 randomized tuples",
            fails, time.time() - t0, 30.0)


def test_criterion_10_closed_forms():
    fails = check_closed_form_specializations(m_max=500, tol=1e-9)
    _report(10, "weak bounds reproduce the closed forms (m <= 500, 1e-9)", fails)


def test_criterion_11_report_consistency():
    fails = check_report_vs_boundary_oracle(q=2, p=3, r=1, up_to=14)
    _report(11, "report bounds never exceed brute-force boundary dims, N <= 14", fails)


def test_criterion_12_determinism():
    fails = []
    runner = CliRunner()
    report_args = ["report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1",
                   "--upto", "60", "--format", "json"]
    rank_args = ["lie-rank", "--degrees", "2:1,3:1", "--upto", "40", "--format", "csv"]
    for args in (report_args, rank_args):
        first = runner.invoke(main, args, catch_exceptions=False)
        second = runner.invoke(main, args, catch_exceptions=False)
        if first.exit_code != 0 or first.stdout_bytes != second.stdout_bytes:
            fails.append(f"non-deterministic output for {args[0]}")
    _report(12, "identical invocations produce byte-identical output", fails)
