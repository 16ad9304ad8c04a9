import dataclasses

import pytest
from mpmath import mp, mpf

import mpmath

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    ParameterMismatch,
    catalog,
    f_q,
    report,
    space_by_name,
)
from torsion_bounds import bounds
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
    assert space_by_name("grassmannian").g_prime(3) == 2
    assert space_by_name("unitary").g_prime(3) == 1
    assert space_by_name("unitary").g_prime(7) == 1


def test_unknown_space():
    with pytest.raises(InvalidArgument):
        space_by_name("sphere")


def test_moore_report_is_f_q_column():
    rows = report(space_by_name("moore"), {"q": 2, "p": 3, "r": 1}, range(2, 12))
    assert [r.degree for r in rows] == list(range(2, 12))
    for row in rows:
        assert row.theorem == "homology_boundary"
        # the row's value comes from the integer pass: it prints f_q's digits
        assert decimal_str(row.bound) == decimal_str(f_q(2, row.degree))
        assert row.vacuous == (row.bound <= 0)


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
    weak = {r.degree: r.bound for r in rows if r.theorem == "ktheory_weak"}
    with mp.workprec(192):
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
        return [
            dataclasses.replace(row, bound=row.bound * (1 + mpf("1e-8"))) if row.theorem == "ktheory_weak" else row
            for row in ktheory_rows(*args)
        ]

    monkeypatch.setattr(bounds, "ktheory_rows", scaled)
    assert check_closed_form_specializations(3) == FIRST_DEGREE_MISMATCHES


def test_report_bounds_below_brute_force_boundaries():
    assert check_report_vs_boundary_oracle(2, 3, 1, 14) == []


def test_every_ktheory_entry_reaches_a_positive_bound():
    'frozen M1 per catalog entry, and positivity persists for 200 further steps'
    assert set(CATALOG_M1) == {s.name for s in catalog() if s.route == "ktheory"}
    assert check_catalog_positivity(window=200) == []
