"""The double-precision Aberth seed against the circle-start iteration it seeds.

`_reference_aberth_roots` is a copy of the Aberth iteration as it ran before
the seed: every sweep at the working precision, from the circle start. The
seeded cloud must keep every root's index and agree with it to the working
precision, and when the double run fails the cloud must be that
computation bit for bit.
"""

import cmath

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from torsion_bounds import charpoly
from torsion_bounds.charpoly import RESIDUAL_TOL, char_poly, root_profile
from torsion_bounds.errors import NumericFailure
from torsion_bounds.verify import generator_family


def _circle(poly, bits):
    k = poly.degree
    with mp.workprec(bits):
        radius = max(mpf(abs(poly.coeffs[0])) ** (mpf(1) / k), mpf("0.5"))
        return [radius * mpmath.expjpi(mpf(2 * j + 1) / k + mpf(1) / (3 * k + 1)) for j in range(k)]


def _reference_aberth_roots(poly, bits):
    k = poly.degree
    with mp.workprec(bits):
        if k == 1:
            z = mpmath.mpc(-poly.coeffs[0])
            return (z,), (abs(poly(z)),)
        z = _circle(poly, bits)
        step_tol = mpf(2) ** (-(bits - 8))
        for _ in range(charpoly._ABERTH_MAX_ITER):
            max_step = mpf(0)
            for i in range(k):
                pv = poly(z[i])
                if pv == 0:
                    continue
                dv = poly.derivative_at(z[i])
                if dv == 0:
                    z[i] += step_tol + mpf("1e-3")
                    max_step = mpf(1)
                    continue
                w = pv / dv
                s = mpmath.fsum((1 / (z[i] - z[j]) for j in range(k) if j != i), absolute=False)
                denom = 1 - w * s
                delta = w if denom == 0 else w / denom
                z[i] -= delta
                max_step = max(max_step, abs(delta) / (1 + abs(z[i])))
            if max_step <= step_tol:
                break
        residuals = [abs(poly(zi)) for zi in z]
        gate = [RESIDUAL_TOL * (1 + abs(zi)) ** k for zi in z]
        bad = [i for i in range(k) if residuals[i] > gate[i]]
        if bad:
            raise NumericFailure(f"root iteration left residuals above gate at indices {bad}")
        return tuple(z), tuple(residuals)


def _passes_gate(poly, roots, bits):
    with mp.workprec(bits):
        return all(abs(poly(z)) <= RESIDUAL_TOL * (1 + abs(z)) ** poly.degree for z in roots)


@pytest.fixture(autouse=True)
def _cold_clouds():
    charpoly._aberth_roots.cache_clear()
    yield
    charpoly._aberth_roots.cache_clear()


FAMILY = generator_family(4, 8)
ABERTH_BITS = (160, 192, 320)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(gen=st.sampled_from(FAMILY), bits=st.sampled_from(ABERTH_BITS))
def test_seeded_cloud_keeps_each_root_of_the_circle_start_run(gen, bits):
    poly = char_poly(gen)
    charpoly._aberth_roots.cache_clear()
    seeded, _ = charpoly._aberth_roots(poly, bits)
    reference, _ = _reference_aberth_roots(poly, bits)
    assert len(seeded) == len(reference) == poly.degree
    with mp.workprec(bits):
        tol = mpf(2) ** -(bits - 10)
        for i, (z, r) in enumerate(zip(seeded, reference)):
            assert abs(z - r) <= tol * (1 + abs(r)), f"root {i} moved"
    assert _passes_gate(poly, seeded, bits) and _passes_gate(poly, reference, bits)
    if poly.degree > 1:
        # the double run converges on this family, to double accuracy, root by root
        seed = charpoly._double_seed(poly, [complex(z) for z in _circle(poly, bits)])
        assert seed is not None
        for i, (s, r) in enumerate(zip(seed, reference)):
            assert abs(s - complex(r)) <= 2.0**-40 * (1 + abs(complex(r))), f"seed {i} is off"

    seeded_profile = root_profile(poly, gen.g, bits)
    charpoly._aberth_roots.cache_clear()
    saved = charpoly._aberth_roots
    try:
        charpoly._aberth_roots = _reference_aberth_roots
        reference_profile = root_profile(poly, gen.g, bits)
    finally:
        charpoly._aberth_roots = saved
    for name in ("phi", "phi_lo", "phi_hi", "g", "precision_bits"):
        assert getattr(seeded_profile, name) == getattr(reference_profile, name), name
    if reference_profile.psi_abs is None:
        assert seeded_profile.psi_abs is None
    else:
        with mp.workprec(bits):
            psi = reference_profile.psi_abs
            assert abs(seeded_profile.psi_abs - psi) <= mpf(2) ** -(bits - 10) * (1 + psi)


def _failing_double_run(mode):
    """An _aberth_sweeps whose run on Python complex fails as `mode` says."""
    sweeps = charpoly._aberth_sweeps

    def fake(poly, z, step_tol, nudge, total):
        if not isinstance(z[0], complex):
            return sweeps(poly, z, step_tol, nudge, total)
        if mode == "overflow":
            raise OverflowError("complex exponentiation")
        if mode == "zero-division":
            raise ZeroDivisionError("complex division by zero")
        if mode == "non-finite":
            z[0] = complex(cmath.inf, 0.0)
            return True
        return False  # no convergence

    return fake


def _tuples(cloud):
    roots, residuals = cloud
    return [z._mpc_ for z in roots], [r._mpf_ for r in residuals]


FALLBACK_GENS = [gen for gen in FAMILY if gen.q_max > 1][::23]


@pytest.mark.parametrize("mode", ["overflow", "zero-division", "non-finite", "no-convergence"])
@pytest.mark.parametrize("bits", ABERTH_BITS)
def test_failed_double_run_falls_back_to_the_circle_start_bit_for_bit(monkeypatch, mode, bits):
    monkeypatch.setattr(charpoly, "_aberth_sweeps", _failing_double_run(mode))
    for gen in FALLBACK_GENS:
        poly = char_poly(gen)
        assert _tuples(charpoly._aberth_roots(poly, bits)) == _tuples(_reference_aberth_roots(poly, bits))


def test_fallback_nudges_a_critical_point_by_the_mpf_step(monkeypatch):
    # P' reads 0 at the first root the mpmath run visits, so both runs take the
    # nudge; every later point at which P' is evaluated must have the same bits
    monkeypatch.setattr(charpoly, "_aberth_sweeps", _failing_double_run("overflow"))
    poly = char_poly(FALLBACK_GENS[1])
    derivative_at = type(poly).derivative_at
    calls = []

    def first_call_vanishes(self, x):
        calls.append(x._mpc_)
        return 0 if len(calls) == 1 else derivative_at(self, x)

    monkeypatch.setattr(type(poly), "derivative_at", first_call_vanishes)
    seeded = _tuples(charpoly._aberth_roots(poly, 160))
    seeded_calls = calls[:]
    calls.clear()
    assert seeded == _tuples(_reference_aberth_roots(poly, 160))
    assert seeded_calls == calls


def test_double_seed_is_none_when_a_coefficient_exceeds_a_double():
    huge = charpoly.MonicIntPoly((-(10**400), 0, 1))
    assert charpoly._double_seed(huge, [1j, -1j]) is None
