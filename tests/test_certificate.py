"""The Weierstrass disc certificate of the root cloud, against exact arithmetic.

`_residual_bound` must bound |P(z)| from above at any fixed-point z, and each
radius of a certified cloud must bound the exact Weierstrass radius k |P(z_i)|
/ prod |z_i - z_j| from above, both checked in exact integers. The verify
checks that read the cloud must catch a fault in it: `FAULTS` maps each
check's `verify.SUITES` label to a monkeypatched fault and cheap arguments.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from torsion_bounds import charpoly, verify
from torsion_bounds.charpoly import GeneratorSet, char_poly, root_profile
from torsion_bounds.verify import generator_family

FAMILY = generator_family(4, 8)


def _exact_scaled_value(coeffs, x, y, shift):
    """P((x + iy) / 2^shift) 2^(shift k) as an exact Gaussian integer (re, im)."""
    re, im = 1, 0
    for j, a in enumerate(reversed(coeffs[:-1]), 1):
        re, im = re * x - im * y + (a << shift * j), re * y + im * x
    return re, im


@st.composite
def _points_near_roots(draw):
    """A family polynomial and a fixed-point z within a few thousand units of
    one of its roots, at a scale of 12 to 64 bits: there the floor roundings of
    the fixed Horner are as large as |P(z)| itself."""
    gen = draw(st.sampled_from(FAMILY))
    poly = char_poly(gen)
    shift = draw(st.integers(12, 64))
    cloud = charpoly._aberth_roots(poly, 160)
    i = draw(st.integers(0, poly.degree - 1))
    drop = cloud.shift - shift
    x, y = (v >> drop for v in (cloud.xs[i], cloud.ys[i]))
    dx, dy = draw(st.integers(-4096, 4096)), draw(st.integers(-4096, 4096))
    return poly, x + dx, y + dy, shift


@settings(derandomize=True, deadline=None, max_examples=300)
@given(point=_points_near_roots())
# z^3 - 2 near its root 2^(1/3) w: without the running error the bound falls below |P|
@example(point=(char_poly(GeneratorSet.of((3, 2))), -2581, 4468, 12))
def test_residual_bound_covers_the_exact_value(point):
    poly, x, y, shift = point
    bound = charpoly._residual_bound(poly.coeffs, x, y, shift)
    re, im = _exact_scaled_value(poly.coeffs, x, y, shift)
    # |P(z)| 2^shift <= bound, i.e. |P(z) 2^(shift k)|^2 <= (bound 2^(shift (k-1)))^2
    assert re * re + im * im <= (bound << shift * (poly.degree - 1)) ** 2


@pytest.mark.parametrize("gen", FAMILY[::7], ids=lambda gen: gen.spec_string())
def test_each_radius_covers_the_exact_weierstrass_radius(gen):
    poly = char_poly(gen)
    cloud = charpoly._aberth_roots(poly, 160)
    k = poly.degree
    points = list(zip(cloud.xs, cloud.ys))
    for (x, y), radius in zip(points, cloud.radii):
        re, im = _exact_scaled_value(poly.coeffs, x, y, cloud.shift)
        product = math.prod((x - xj) ** 2 + (y - yj) ** 2 for xj, yj in points if (xj, yj) != (x, y))
        # k |P(z)| / prod |z - z_j| <= radius / 2^shift, squared and scaled by 2^(2 shift k)
        assert k * k * (re * re + im * im) <= radius * radius * product
        assert radius << (cloud.bits - 8) <= math.isqrt(x * x + y * y)


@pytest.mark.parametrize("gen", FAMILY[::5], ids=lambda gen: gen.spec_string())
def test_the_orbit_discs_reach_modulus_phi(gen):
    # each of the g discs the profile reads as the orbit holds a root of modulus phi,
    # and |psi| is the largest centre modulus outside them
    profile = root_profile(char_poly(gen), gen.g, 160)
    cloud = profile.cloud
    moduli = sorted(((x * x + y * y, r) for x, y, r in zip(cloud.xs, cloud.ys, cloud.radii)), reverse=True)
    lo, hi = (math.floor(phi * 2**cloud.shift) for phi in (profile.phi_lo, profile.phi_hi))
    for modulus, radius in moduli[: gen.g]:
        assert lo - radius - 1 <= math.isqrt(modulus) <= hi + radius + 1
    if profile.psi_abs is not None:
        with mp.workprec(cloud.shift + 64):
            centre = mpmath.ldexp(math.isqrt(moduli[gen.g][0]), -cloud.shift)
            assert abs(profile.psi_abs - centre) <= mpf(2) ** -(cloud.bits - 1) * centre
        assert math.isqrt(moduli[gen.g][0]) + moduli[gen.g][1] < lo


def test_a_repeated_root_is_refused_before_the_sweep_cap():
    # z^3 - 3z - 2 = (z + 1)^2 (z - 2): no disjoint discs isolate -1 twice
    with pytest.raises(charpoly.InvalidArgument, match="repeated root"):
        root_profile(char_poly(GeneratorSet.of((2, 3), (3, 2))), 1, 64)
    assert charpoly._has_repeated_root(char_poly(GeneratorSet.of((20, 3), (30, 2))))
    assert not any(charpoly._has_repeated_root(char_poly(gen)) for gen in FAMILY)


def _cloud_fault(change):
    """An _aberth_roots whose cloud `change` alters after certification."""
    certified = charpoly._aberth_roots

    def faulty(poly, bits):
        return change(certified(poly, bits))

    return faulty


def _nudge_one_root(cloud):
    return dataclasses.replace(cloud, xs=(cloud.xs[0] + (1 << (cloud.shift - 100)),) + cloud.xs[1:])


def _zero_radii(cloud):
    return dataclasses.replace(cloud, radii=(0,) * len(cloud.radii))


# verify.SUITES label -> (check, the cloud fault it must catch, cheap kwargs)
FAULTS = {
    "root profile family": (verify.check_profile_family, _nudge_one_root, {"max_sum_m": 2, "max_q": 4}),
    "newton vs root cloud": (verify.check_newton_root_agreement, _zero_radii, {"n_max": 20}),
}


@pytest.fixture
def cold_profiles():
    charpoly._cached_profile.cache_clear()
    yield
    charpoly._cached_profile.cache_clear()


@pytest.mark.parametrize("label", list(FAULTS))
def test_each_cloud_check_catches_its_fault(monkeypatch, cold_profiles, label):
    check, change, kwargs = FAULTS[label]
    assert label in {name for suite in verify.SUITES.values() for name, _, _ in suite}
    assert check(**kwargs) == []
    charpoly._cached_profile.cache_clear()
    monkeypatch.setattr(charpoly, "_aberth_roots", _cloud_fault(change))
    assert check(**kwargs) != []
