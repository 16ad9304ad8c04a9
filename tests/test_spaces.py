import dataclasses
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import mpmath

from click.testing import CliRunner

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    ParameterMismatch,
    SpaceSpec,
    catalog,
    f_q,
    report,
    space_by_name,
)
from torsion_bounds import bounds, spaces, verify
from torsion_bounds.cli import main
from torsion_bounds.render import decimal_str
from torsion_bounds.verify import (
    CATALOG_M1,
    check_catalog_positivity,
    check_closed_form_specializations,
    check_report_vs_boundary_oracle,
)


def test_catalog_contents():
    names = {s.name for s in catalog()}
    assert names == {
        "moore",
        "suspended-em",
        "grassmannian",
        "milnor-hypersurface",
        "unitary",
        "special-unitary",
    }
    gr = space_by_name("grassmannian")
    assert gr.gen == GeneratorSet.of((2, 1), (4, 1))
    assert gr.conn == 1
    assert gr.dim({"n": 3, "k": 1, "p": 3}) == 4
    assert gr.dim({"n": 5, "k": 2, "p": 3}) == 12
    u = space_by_name("unitary")
    assert u.gen == GeneratorSet.of((3, 1), (5, 1))
    assert u.conn == 0 and u.dim({"n": 4, "p": 3}) == 16
    su = space_by_name("special-unitary")
    assert su.conn == 2 and su.dim({"n": 4, "p": 3}) == 15
    mil = space_by_name("milnor-hypersurface")
    assert mil.dim({"n": 2, "l": 3, "p": 3}) == 8


def test_catalog_g_prime():
    assert space_by_name("grassmannian").ktheory({"n": 3, "k": 1, "p": 3}).g_prime == 2
    assert space_by_name("unitary").ktheory({"n": 3, "p": 3}).g_prime == 1
    assert space_by_name("unitary").ktheory({"n": 3, "p": 7}).g_prime == 1


def test_a_new_ktheory_record_is_all_a_new_space_needs(monkeypatch):
    # a throwaway family with the Grassmannians' wedge and connectivity, its own condition and
    # dimension 2n: put in the catalog, report refuses it with the record's text and prints its rows
    record = SpaceSpec(
        name="throwaway", route="ktheory", display="Sigma X_n", params=("n", "p"), note="S^3 v S^5 onto Sigma X_n",
        condition="n >= 2", holds=lambda v: v["n"] >= 2,
        gen=GeneratorSet.of((2, 1), (4, 1)), conn=1, dim=lambda v: 2 * v["n"],
    )
    monkeypatch.setattr(spaces, "_CATALOG", (*catalog(), record))
    runner = CliRunner()
    refused = runner.invoke(main, ["report", "--space", "throwaway", "--n", "1", "--p", "3", "--upto", "40"])
    assert refused.exit_code == 1 and refused.stderr == "error: throwaway requires n >= 2\n"
    assert record.ktheory({"n": 2, "p": 3}) is bounds.ktheory_params(3, record.gen, 1, 4)
    printed = [
        runner.invoke(main, ["report", "--space", *space, "--p", "3", "--upto", "400"])
        for space in (["throwaway", "--n", "2"], ["grassmannian", "--n", "3", "--k", "1"])  # Gr_1(C^3) has dim 4 too
    ]
    assert printed[0].exit_code == 0 and printed[0].stdout_bytes == printed[1].stdout_bytes
    assert printed[0].stdout.count("\n") == 401


def test_unknown_space():
    with pytest.raises(InvalidArgument):
        space_by_name("sphere")


def test_moore_report_is_f_q_column():
    rows = report(space_by_name("moore"), {"q": 2, "p": 3, "r": 1}, range(2, 12))
    assert [r.degree for r in rows] == list(range(2, 12))
    for row in rows:
        assert row.theorem == "homology_boundary"
        # the row's text comes from the integer pass: it prints f_q's digits
        assert row.text == decimal_str(f_q(2, row.degree))
        assert row.vacuous == (f_q(2, row.degree) <= 0)


def test_empty_range_gives_empty_report():
    assert report(space_by_name("moore"), {"q": 2, "p": 3, "r": 1}, []) == []
    assert report(space_by_name("grassmannian"), {"n": 3, "k": 1, "p": 3}, []) == []


def test_parameter_mismatch():
    moore = space_by_name("moore")
    with pytest.raises(ParameterMismatch):
        report(moore, {"q": 2, "p": 3}, range(2, 4))  # missing r
    with pytest.raises(ParameterMismatch):
        report(moore, {"q": 2, "p": 3, "r": 1, "n": 5}, range(2, 4))  # extra n
    with pytest.raises(ParameterMismatch):
        report(moore, {"q": 1, "p": 3, "r": 1}, range(2, 4))  # q < 2
    with pytest.raises(ParameterMismatch):
        report(moore, {"q": 2, "p": 4, "r": 1}, range(2, 4))  # p not odd prime
    with pytest.raises(ParameterMismatch):
        moore.ktheory({"q": 2, "p": 3, "r": 1})  # the homology route has no K-theory constants
    gr = space_by_name("grassmannian")
    with pytest.raises(ParameterMismatch):
        report(gr, {"n": 3, "k": 3, "p": 3}, [])  # k = n


def test_ktheory_report_rows():
    rows = report(space_by_name("grassmannian"), {"n": 3, "k": 1, "p": 3}, [380, 382])
    assert [(r.degree, r.theorem) for r in rows] == [
        (380, "ktheory_guaranteed"),
        (380, "ktheory_weak"),
        (382, "ktheory_guaranteed"),
        (382, "ktheory_weak"),
    ]
    assert all(not r.vacuous for r in rows)


def test_ktheory_report_rejects_off_grid_degrees():
    with pytest.raises(InvalidArgument):
        report(space_by_name("grassmannian"), {"n": 3, "k": 1, "p": 3}, [3])


def test_weak_rows_match_known_closed_form():
    rows = report(
        space_by_name("grassmannian"), {"n": 3, "k": 1, "p": 3}, [20, 40], eps="1/2"
    )
    with mp.workprec(192):
        weak = {r.degree: mpf(r.text) for r in rows if r.theorem == "ktheory_weak"}
        golden4 = (3 + mpmath.sqrt(5)) / 2
        for m in (10, 20):
            want = golden4 ** (mpf(m) / 5) / mpf(2 * m) ** mpf("1.5")
            assert abs(weak[2 * m] - want) <= mpf("1e-9") * want


def test_closed_form_specializations_full():
    assert check_closed_form_specializations(500) == []


FIRST_DEGREE_MISMATCHES = [
    "grassmannian n=3, k=1: mismatch at m=1",
    "grassmannian n=4, k=2: mismatch at m=1",
    "grassmannian n=6, k=2: mismatch at m=1",
    "milnor n=2, l=3: mismatch at m=1",
    "milnor n=3, l=4: mismatch at m=1",
]


def test_closed_form_specializations_catch_a_scaled_weak_lower(monkeypatch):
    weak_lower = bounds.weak_lower
    assert check_closed_form_specializations(3) == []
    monkeypatch.setattr(bounds, "weak_lower", lambda *args: weak_lower(*args) * (1 + mpf("1e-8")))
    assert check_closed_form_specializations(3) == FIRST_DEGREE_MISMATCHES


def test_closed_form_specializations_catch_scaled_weak_rows(monkeypatch):
    ktheory_rows = bounds.ktheory_rows

    def scaled(*args):
        with mp.workprec(128):
            return [
                row._replace(text=decimal_str(mpf(row.text) * (1 + mpf("1e-8"))))
                if row.theorem == "ktheory_weak" else row
                for row in ktheory_rows(*args)
            ]

    monkeypatch.setattr(bounds, "ktheory_rows", scaled)
    assert check_closed_form_specializations(3) == FIRST_DEGREE_MISMATCHES


@pytest.mark.parametrize("ulps", [-(2**32), 2**32])
def test_closed_form_specializations_catch_a_shifted_quartic_enclosure(monkeypatch, ulps):
    # [phi_lo, phi_hi] of z^4 - z^2 - 1 moved by 2^32 units of its last bit, far
    # past its width, so its fourth powers no longer hold (3 + sqrt 5)/2
    profile_of = verify.profile_for_exponent

    def shifted(gen, n_max):
        profile = profile_of(gen, n_max)
        if gen != GeneratorSet.of((2, 1), (4, 1)):
            return profile
        step = Fraction(ulps, 1 << profile.precision_bits)
        return dataclasses.replace(profile, phi_lo=profile.phi_lo + step, phi_hi=profile.phi_hi + step)

    monkeypatch.setattr(verify, "profile_for_exponent", shifted)
    assert check_closed_form_specializations(3) == ["phi^4 of z^4 - z^2 - 1 differs from (3 + sqrt 5)/2"]


def test_report_bounds_below_brute_force_boundaries():
    assert check_report_vs_boundary_oracle(2, 3, 1, 14) == []


def test_every_ktheory_entry_reaches_a_positive_bound():
    'frozen M1 per catalog entry, and positivity persists for 200 further steps'
    assert set(CATALOG_M1) == {s.name for s in catalog() if s.route == "ktheory"}
    assert check_catalog_positivity(window=200) == []
