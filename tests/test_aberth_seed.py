"""The fixed-point Aberth cloud against the mpmath circle-start iteration.

`_reference_aberth_roots` is a copy of the Aberth iteration as it ran before
the double-precision seed and the fixed-point sweeps: every sweep in mpmath
at the working precision, from the circle start. The cloud must keep every
root's index and agree with it to 2^-(bits-10) (1 + |r|), whether the
fixed-point sweeps start from the double run or, when that run fails, from
the circle; after a failed double run the cloud is the fixed-point run from
the circle start bit for bit. From the double run's seed the fixed-point
sweeps take no more sweeps than the mpmath sweeps did.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from torsion_bounds import charpoly
from torsion_bounds.charpoly import GeneratorSet, char_poly, root_profile
from torsion_bounds.errors import NumericFailure
from torsion_bounds.verify import generator_family

# the residual gate the mpmath iteration accepted its cloud by:
# |P(z)| <= RESIDUAL_TOL (1 + |z|)^degree at every root
RESIDUAL_TOL = 1e-9


def _circle(poly, bits):
    k = poly.degree
    with mp.workprec(bits):
        radius = max(mpf(abs(poly.coeffs[0])) ** (mpf(1) / k), mpf("0.5"))
        return [radius * mpmath.expjpi(mpf(2 * j + 1) / k + mpf(1) / (3 * k + 1)) for j in range(k)]


def _reference_sweeps(poly, z, bits):
    """The mpmath Aberth sweeps on z in place; the number of sweeps run."""
    k = poly.degree
    with mp.workprec(bits):
        step_tol = mpf(2) ** (-(bits - 8))
        for sweep in range(1, charpoly._ABERTH_MAX_ITER + 1):
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
                return sweep
    return sweep


def _reference_aberth_roots(poly, bits):
    k = poly.degree
    with mp.workprec(bits):
        if k == 1:
            z = [mpmath.mpc(-poly.coeffs[0])]
        else:
            z = _circle(poly, bits)
            _reference_sweeps(poly, z, bits)
        residuals = [abs(poly(zi)) for zi in z]
        gate = [RESIDUAL_TOL * (1 + abs(zi)) ** k for zi in z]
        bad = [i for i in range(k) if residuals[i] > gate[i]]
        if bad:
            raise NumericFailure(f"root iteration left residuals above gate at indices {bad}")
        errors = [r / abs(poly.derivative_at(zi)) for zi, r in zip(z, residuals)]
        return tuple(z), tuple(residuals), tuple(errors)


def _passes_gate(poly, roots, bits):
    with mp.workprec(bits):
        return all(abs(poly(z)) <= RESIDUAL_TOL * (1 + abs(z)) ** poly.degree for z in roots)


def _assert_same_roots(cloud, reference, bits):
    assert len(cloud) == len(reference)
    with mp.workprec(bits):
        tol = mpf(2) ** -(bits - 10)
        for i, (z, r) in enumerate(zip(cloud, reference)):
            assert abs(z - r) <= tol * (1 + abs(r)), f"root {i} moved"


def _shift(poly, bits):
    """The fixed-point scale of the cloud at `bits`."""
    return bits + charpoly._GUARD_BITS + 2 * poly.coeff_bound().bit_length()


def _seed(poly):
    """The double run from the circle start; it converges on these families."""
    z = [complex(c) for c in _circle(poly, 53)]
    assert charpoly._aberth_sweeps(poly, z)
    return z


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
    seeded = charpoly._aberth_roots(poly, bits).roots
    reference, _, _ = _reference_aberth_roots(poly, bits)
    assert len(seeded) == poly.degree
    _assert_same_roots(seeded, reference, bits)
    assert _passes_gate(poly, seeded, bits) and _passes_gate(poly, reference, bits)
    if poly.degree > 1:
        # the double run converges on this family, to double accuracy, root by root
        for i, (s, r) in enumerate(zip(_seed(poly), reference)):
            assert abs(s - complex(r)) <= 2.0**-40 * (1 + abs(complex(r))), f"seed {i} is off"

    # |psi| is the largest modulus after the g largest, which the reference
    # iteration's orbit classification also read off
    seeded_psi = root_profile(poly, gen.g, bits).psi_abs
    if poly.degree == gen.g:
        assert seeded_psi is None
    else:
        with mp.workprec(bits):
            psi = sorted(abs(z) for z in reference)[-gen.g - 1]
            assert abs(seeded_psi - psi) <= mpf(2) ** -(bits - 10) * (1 + psi)


# dominant-family generator sets of degree up to 40, multiplicities up to 6,
# with every degree a multiple of a drawn g (so g > 1 cases are common)
WIDE_FAMILY = st.integers(1, 4).flatmap(
    lambda g: st.lists(
        st.tuples(st.integers(1, 40 // g), st.integers(1, 6)), min_size=1, max_size=3, unique_by=lambda t: t[0]
    ).map(lambda pairs: GeneratorSet.of(*sorted((g * q, m) for q, m in pairs)))
)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(gen=WIDE_FAMILY, bits=st.sampled_from(ABERTH_BITS))
@example(gen=GeneratorSet.of((4, 2), (8, 6), (40, 5)), bits=320)
def test_fixed_point_cloud_meets_the_reference_beyond_the_verify_family(gen, bits):
    poly = char_poly(gen)
    charpoly._aberth_roots.cache_clear()
    cloud = charpoly._aberth_roots(poly, bits).roots
    _assert_same_roots(cloud, _reference_aberth_roots(poly, bits)[0], bits)
    assert _passes_gate(poly, cloud, bits)
    if poly.degree > 1:
        # from one seed, the fixed-point sweeps take no more sweeps than mpmath's
        seed, shift = _seed(poly), _shift(poly, bits)
        xs, ys = [int(mpmath.ldexp(s.real, shift)) for s in seed], [int(mpmath.ldexp(s.imag, shift)) for s in seed]
        with mp.workprec(bits):
            mp_sweeps = _reference_sweeps(poly, [mpmath.mpc(s) for s in seed], bits)
        assert charpoly._fixed_sweeps(poly, xs, ys, bits, shift)[0] <= mp_sweeps


def _failing_double_run(mode):
    """An _aberth_sweeps that fails as `mode` says."""

    def fake(poly, z):
        if mode == "overflow":
            raise OverflowError("complex exponentiation")
        if mode == "zero-division":
            raise ZeroDivisionError("complex division by zero")
        if mode == "non-finite":
            z[0] = complex(cmath.inf, 0.0)
            return True
        return False  # no convergence

    return fake


FALLBACK_GENS = [gen for gen in FAMILY if gen.q_max > 1][::23]


def _circle_start_cloud(poly, bits):
    """The fixed-point sweeps from the double-precision circle start, with no
    double run, rounded to `bits`."""
    k, shift = poly.degree, _shift(poly, bits)
    radius = max(math.exp(math.log(abs(poly.coeffs[0])) / k), 0.5)
    z = [cmath.rect(radius, math.pi * ((2 * j + 1) / k + 1 / (3 * k + 1))) for j in range(k)]
    xs, ys = [int(mpmath.ldexp(c.real, shift)) for c in z], [int(mpmath.ldexp(c.imag, shift)) for c in z]
    charpoly._fixed_sweeps(poly, xs, ys, bits, shift)
    with mp.workprec(bits):
        return [mpmath.mpc(mpmath.ldexp(int(mpf(x)), -shift), mpmath.ldexp(int(mpf(y)), -shift)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("mode", ["overflow", "zero-division", "non-finite", "no-convergence"])
@pytest.mark.parametrize("bits", ABERTH_BITS)
def test_failed_double_run_falls_back_to_the_circle_start_bit_for_bit(monkeypatch, mode, bits):
    # the cloud is the fixed-point run from the circle start, however the
    # double run failed, and it meets the mpmath reference root by root
    monkeypatch.setattr(charpoly, "_aberth_sweeps", _failing_double_run(mode))
    for gen in FALLBACK_GENS:
        poly = char_poly(gen)
        cloud = charpoly._aberth_roots(poly, bits).roots
        assert [z._mpc_ for z in cloud] == [z._mpc_ for z in _circle_start_cloud(poly, bits)]
        _assert_same_roots(cloud, _reference_aberth_roots(poly, bits)[0], bits)
        assert _passes_gate(poly, cloud, bits)


def test_fallback_nudges_a_root_where_the_fixed_derivative_vanishes(monkeypatch):
    # P' reads 0 at the first root the fixed-point run visits: that root moves
    # by the nudge, and the run still meets the reference
    monkeypatch.setattr(charpoly, "_aberth_sweeps", _failing_double_run("overflow"))
    poly = char_poly(FALLBACK_GENS[1])
    bits = 160
    horner = charpoly._fixed_horner
    calls = []

    def first_call_vanishes(coeffs, x, y, shift):
        calls.append((x, y))
        px, py, dx, dy = horner(coeffs, x, y, shift)
        return (px, py, 0, 0) if len(calls) == 1 else (px, py, dx, dy)

    monkeypatch.setattr(charpoly, "_fixed_horner", first_call_vanishes)
    cloud = charpoly._aberth_roots(poly, bits).roots
    one, k = 1 << _shift(poly, bits), poly.degree
    # the second sweep visits root 0 where the nudge left it
    assert calls[k] == (calls[0][0] + (one >> (bits - 8)) + one // 1000, calls[0][1])
    _assert_same_roots(cloud, _reference_aberth_roots(poly, bits)[0], bits)
    assert _passes_gate(poly, cloud, bits)


def test_a_coefficient_beyond_a_double_fails_the_double_run_but_not_the_cloud():
    huge = charpoly.MonicIntPoly((-(10**400), 0, 1))
    with pytest.raises(OverflowError):
        charpoly._aberth_sweeps(huge, [1j, -1j])
    cloud = charpoly._aberth_roots(huge, 160).roots
    _assert_same_roots(cloud, _reference_aberth_roots(huge, 160)[0], 160)


@pytest.mark.parametrize("m", [10**30, 10**90, 10**150], ids=["1e30", "1e90", "1e150"])
def test_roots_far_from_one_keep_their_relative_accuracy(m):
    # z^2 - m z - 1 has roots near m and -1/m; the fixed scale grows with the
    # coefficients, so the small root is as accurate as the large one
    poly = char_poly(GeneratorSet.of((1, m), (2, 1)))
    cloud = charpoly._aberth_roots(poly, 320).roots
    with mp.workprec(640):
        large = (m + mpmath.sqrt(m * m + 4)) / 2
        for z, r in zip(sorted(cloud, key=abs), (-1 / large, large)):  # the roots' product is -1
            assert abs(z - r) <= mpf(2) ** -300 * abs(r)
