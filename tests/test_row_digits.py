"""Each bound row prints the digits of the public function at the row's precision.

A table's rows are evaluated in one integer pass (bounds._Running): running
powers on F-bit mantissas from the table's deepest profile, and a row takes
its text from the pass only when render.common_text shows that every real
of its enclosure, the P-bit value of the row's own profile included, prints
that text.  These tests compare every row's text with decimal_str of
ktheory_lower, weak_lower and f_q at the same P, check the error bound
against the exact difference, at the real F and at a small one, check the
power routine's stated bound, count the profiles a table builds, move the
table's profile, force the fallback, and check common_text against a
rational-arithmetic form.
"""

import dataclasses
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from torsion_bounds import GeneratorSet, bounds, charpoly
from torsion_bounds.bounds import (
    _exponent_budget,
    f_q,
    homology_params,
    homology_rows,
    ktheory_lower,
    ktheory_params,
    ktheory_rows,
    weak_lower,
)
from torsion_bounds.charpoly import profile_bits_of, profile_for_exponent
from torsion_bounds.render import _ratio, common_text, decimal_str
from torsion_bounds.spaces import catalog, space_by_name

EPSILONS = ("1/2", "1/3", "7", "64")
# (p, degrees, least row precision) of a Grassmannian n = 3, k = 1 table, and (q, degrees,
# least row precision) of a homology table.  Every deep row runs at 1024 bits or more, where
# the larger p and q still leave vacuous rows.
KTHEORY_TABLES = {
    "auto": (3, range(2, 3001, 6), 256),
    "deep": (7, range(1000, 3001, 10), 1024),
}
HOMOLOGY_TABLES = {
    "2-auto": (2, range(2, 1501, 3), 192),
    "4-auto": (4, range(2, 1501, 3), 192),
    "7-deep": (7, range(900, 2001, 7), 1024),
    "8-deep": (8, range(1000, 2001, 7), 1024),
}
KTHEORY_SPACES = {
    "grassmannian": {"n": 3, "k": 1, "p": 3},
    "milnor-hypersurface": {"n": 3, "l": 5, "p": 3},
    "unitary": {"n": 5, "p": 3},
    "special-unitary": {"n": 3, "p": 3},
}


def _ktheory(name="grassmannian", values=None):
    return space_by_name(name).ktheory(values or KTHEORY_SPACES[name])


def _printed(bound, vacuous, bits):
    return decimal_str(bound), vacuous, bits


def _printed_row(row):
    """The row as printed; its vacuous flag follows the text's sign."""
    assert row.vacuous == (Decimal(row.text) <= 0), row
    return row.text, row.vacuous, row.precision_bits


def _dyadic(man: int, exp: int) -> mpf:
    return mp.make_mpf(from_man_exp(man, exp))


def _record_enclosures(monkeypatch) -> list:
    """[(v, e)] for every row the integer pass encloses, in the order of the pass."""
    seen = []
    enclose = bounds._Running.enclose

    def recording_enclose(self, terms, steps, bits):
        value, err, base = enclose(self, terms, steps, bits)
        seen.append((_dyadic(value, base), _dyadic(err, base)))
        return value, err, base

    monkeypatch.setattr(bounds._Running, "enclose", recording_enclose)
    return seen


def _ktheory_references(params, degrees, eps) -> list:
    """The P-bit value behind each enclosure of ktheory_rows, in the order of the
    pass: the strong bound at each new (n(M), precision), then the weak bound."""
    references, pairs = [], set()
    for m in degrees:
        n = params.n_of(m)
        bits = profile_for_exponent(params.gen, _exponent_budget(params, m)).precision_bits
        if n is not None and (n, bits) not in pairs:
            pairs.add((n, bits))
            references.append(ktheory_lower(params, m))
        references.append(weak_lower(params, m, eps))
    return references


def _assert_enclosed(enclosures, references):
    assert len(enclosures) == len(references)
    for (value, err), exact in zip(enclosures, references):
        assert abs(mp.fsub(value, exact, exact=True)) <= err


def _assert_ktheory_rows_print_references(params, degrees, eps, rows):
    for strong, weak, m in zip(rows[::2], rows[1::2], degrees):
        bits = profile_for_exponent(params.gen, _exponent_budget(params, m)).precision_bits
        want = ktheory_lower(params, m)
        assert _printed_row(strong) == _printed(want, bool(want <= 0), bits), m
        exact = weak_lower(params, m, eps)
        assert _printed_row(weak) == _printed(exact, bool(exact <= 0), bits), m


def _assert_homology_rows_print_references(q, degrees, rows):
    assert [row.degree for row in rows] == list(degrees)
    for row, n in zip(rows, degrees):
        exact = f_q(q, n)
        assert _printed_row(row) == _printed(
            exact, bool(exact <= 0), homology_params(q, n).precision_bits
        ), n


@pytest.mark.parametrize("table", KTHEORY_TABLES)
@pytest.mark.parametrize("eps", EPSILONS)
def test_ktheory_rows_print_the_reference_digits(monkeypatch, eps, table):
    p, degrees, least_bits = KTHEORY_TABLES[table]
    params = _ktheory(values={"n": 3, "k": 1, "p": p})
    calls = []
    monkeypatch.setattr(bounds, "weak_lower", lambda *args: calls.append(args) or weak_lower(*args))

    rows = ktheory_rows(params, degrees, eps)

    _assert_ktheory_rows_print_references(params, degrees, eps, rows)
    assert min(row.precision_bits for row in rows) >= least_bits
    assert any(row.vacuous for row in rows) and not all(row.vacuous for row in rows)
    assert len(calls) <= 2  # the integer pass decides nearly every weak row


@pytest.mark.parametrize("table", HOMOLOGY_TABLES)
def test_homology_rows_print_the_reference_digits(monkeypatch, table):
    q, degrees, least_bits = HOMOLOGY_TABLES[table]
    calls = []
    monkeypatch.setattr(bounds, "f_q", lambda *args: calls.append(args) or f_q(*args))

    rows = homology_rows(q, 3, degrees)

    _assert_homology_rows_print_references(q, degrees, rows)
    assert min(row.precision_bits for row in rows) >= least_bits
    assert any(row.vacuous for row in rows) and not all(row.vacuous for row in rows)
    assert len(calls) <= len(degrees) // 50  # every row goes through the integer pass, few fall back


@pytest.mark.parametrize("eps", EPSILONS)
def test_error_bound_covers_the_reference_value(monkeypatch, eps):
    params, degrees = _ktheory(), range(2, 3001, 2)
    enclosures = _record_enclosures(monkeypatch)
    ktheory_rows(params, degrees, eps)
    homology_rows(2, 3, range(2, 1501))
    references = _ktheory_references(params, degrees, eps) + [f_q(2, n) for n in range(2, 1501)]
    assert len(references) > 3000

    _assert_enclosed(enclosures, references)
    for (value, err), exact in zip(enclosures, references):
        # far below the 2^-80 relative spacing of 24 digits
        assert err <= abs(exact) * mpf(2) ** -90 or abs(exact) < err * 2**20


def _fractions():
    return st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    q=st.integers(2, 12),
    start=st.integers(2, 900),
    gaps=st.lists(st.integers(1, 70), min_size=1, max_size=40),
    name=st.sampled_from(sorted(KTHEORY_SPACES)),
    eps=st.one_of(st.sampled_from(["1/2", "1/3", "7/3", "7", "64"]), _fractions()),
)
@example(q=2, start=2, gaps=[1] * 40, name="grassmannian", eps="1/2")
@example(q=12, start=700, gaps=[1, 1, 2, 1, 64, 1, 1], name="unitary", eps="64")
def test_every_enclosure_holds_and_every_row_prints_its_reference(q, start, gaps, name, eps):
    degrees = [start]
    for gap in gaps:
        degrees.append(degrees[-1] + gap)
    params = _ktheory(name)
    ktheory_degrees = [params.g_prime * m for m in degrees if params.g_prime * m <= 3000]
    with pytest.MonkeyPatch.context() as monkeypatch:
        enclosures = _record_enclosures(monkeypatch)
        homology = homology_rows(q, 3, degrees)
        ktheory = ktheory_rows(params, ktheory_degrees, eps)
    references = [f_q(q, n) for n in degrees] + _ktheory_references(params, ktheory_degrees, eps)

    _assert_enclosed(enclosures, references)
    _assert_homology_rows_print_references(q, degrees, homology)
    _assert_ktheory_rows_print_references(params, ktheory_degrees, eps, ktheory)


# (degrees, eps, K-theory params) of the small-F tables, eps None for homology: a contiguous run, a
# strided deep run that restarts at every row, and a deep contiguous run; and a wedge of dimension
# 10^6, whose weak pass takes 3999 steps without a restart against a weight W of 247
SMALL_F_TABLES = {
    "homology": ([*range(2, 200), *range(900, 1400, 3), *range(1400, 1500)], None, None),
    **{
        eps: ([*range(2, 400, 2), *range(1000, 1400, 6), *range(1400, 1600, 2)], eps, _ktheory())
        for eps in ("1/2", "1/3", "63/64")
    },
    "dim 10^6": (range(1, 4001), "1/2", ktheory_params(3, GeneratorSet.of((1, 1), (2, 1)), 1, 10**6)),
}


@pytest.mark.parametrize("table", SMALL_F_TABLES)
def test_enclosures_hold_the_table_formula_at_small_f(monkeypatch, table):
    """With F = 8 + bitlen(W) + bitlen(rows) and no safety bits, e is little more than the _Running
    inventory, and every [v - e, v + e] must still hold the row's formula at the table's own inputs,
    evaluated at 4F bits.

    Mutants of e's terms, each tried on a copy of bounds.py, in units of S u (S the sum of the term
    magnitudes, u = 2^(1-F)):
    - e without its per-step 4 j fails the dim 10^6 table.  Its weak pass multiplies by the
      floor-rounded phi^(ratio) 3999 times without a restart and drifts by about 0.3 u a step,
      1192 units at the end, past the 2 W + 32 = 526 left.  At dim 10^60 the factor rounds to
      exactly 1 and there is no drift.
    - e without its fixed 32 (2 W + 4 j) and e with both scales halved (W + 16 + 4 j, and
      (W + 2) / 2 for the inputs) pass every test.  No realizable error reaches them: the largest
      error these tables show is about 128 units at j < 100 (W >= 10477 there) and 0.3 j units in
      the dim 10^6 table (W = 247), far under W + 16 + 4 j.
    """
    monkeypatch.setattr(bounds, "_ROW_BITS", 8)
    monkeypatch.setattr(bounds, "_ROW_SAFETY_BITS", 0)
    passes, seen = [], []
    init, enclose = bounds._Running.__init__, bounds._Running.enclose

    def recording_enclose(self, terms, steps, bits):
        value, err, base = enclose(self, terms, steps, bits)
        seen.append((self, self.at, _dyadic(value, base), _dyadic(err, base)))
        return value, err, base

    monkeypatch.setattr(bounds._Running, "__init__", lambda self, *args: init(self, *args) or passes.append(self))
    monkeypatch.setattr(bounds._Running, "enclose", recording_enclose)
    degrees, eps, params = SMALL_F_TABLES[table]
    if eps is None:
        homology_rows(2, 3, degrees)
        top = homology_params(2, max(degrees))
        with mp.workprec(top.precision_bits):
            c, kappa = bounds._c_kappa(2, top)

        def formula(running, n):
            phi, psi = top.phi, top.psi_abs
            return phi**n / n - phi ** (n - 1) / (n - 1) - c * n * phi ** (mpf(n) / 2) - kappa * psi**n
    else:
        ktheory_rows(params, degrees, eps)
        top = profile_for_exponent(params.gen, _exponent_budget(params, max(degrees)))
        g, big_e = params.g, 8 * (params.p - 1) ** 2

        def formula(running, n):
            phi, psi = top.phi, top.psi_abs
            if running is passes[1]:
                return phi ** bounds._mpf_of(params.ratio * n) / mpf(n) ** (1 + bounds._mpf_of(Fraction(eps)))
            value = phi ** (n * g) / (n + big_e) - g * phi ** (mpf((n + big_e) * g) / 2)
            return value - params.gen.q_max * (3 + 2 * psi ** ((n + big_e) * g)) if psi is not None else value

    assert len(seen) >= len(degrees) and max(running.bits for running in passes) < 64
    for running, n, value, err in seen:
        with mp.workprec(4 * running.bits):
            assert abs(mp.fsub(value, formula(running, n), exact=True)) <= err, (n, running.step, running.steps)


def _shifted(profile_of, bits):
    """profile_of with the phi of its profile at `bits` moved by 2^-60 per 64-bit
    bucket of precision, so that its digits differ in the 18th place."""

    def shifted(*args):
        profile = profile_of(*args)
        if profile.precision_bits != bits:
            return profile
        with mp.workprec(bits + 32):
            return dataclasses.replace(profile, phi=profile.phi * (1 + mpf(2) ** -60 * (bits // 64)))

    return shifted


def _fallbacks(monkeypatch) -> list:
    """The name of each P-bit function that a row falls back to, in the order of the calls."""
    calls = []
    for name in ("f_q", "ktheory_lower", "weak_lower"):
        function = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args, f=function, name=name: calls.append(name) or f(*args))
    return calls


def test_each_table_builds_one_profile_and_one_per_fallback_row(monkeypatch):
    params, degrees = _ktheory(), range(2, 1501, 2)
    fallbacks = _fallbacks(monkeypatch)
    bounds._homology_params.cache_clear()
    for build_rows in (lambda: ktheory_rows(params, degrees, "1/2"), lambda: homology_rows(2, 3, range(2, 1001))):
        charpoly._cached_profile.cache_clear()
        fallbacks.clear()
        build_rows()
        assert charpoly._cached_profile.cache_info().misses == 1 + len(fallbacks)


def test_a_wrong_table_profile_shows_in_the_printed_rows(monkeypatch):
    # every row takes its inputs from the deepest profile, so moving only that
    # profile's phi moves digits that the reference assertions see
    params, degrees = _ktheory(), range(2, 1501, 2)
    with monkeypatch.context() as patch:
        top = profile_bits_of(params.gen)(_exponent_budget(params, max(degrees)))
        patch.setattr(bounds, "profile_for_exponent", _shifted(profile_for_exponent, top))
        rows = ktheory_rows(params, degrees, "1/2")
    with pytest.raises(AssertionError):
        _assert_ktheory_rows_print_references(params, degrees, "1/2", rows)
    bounds._homology_params.cache_clear()
    try:
        with monkeypatch.context() as patch:
            top = homology_params(2, 1000).precision_bits
            bounds._homology_params.cache_clear()
            patch.setattr(bounds, "profile_at", _shifted(bounds.profile_at, top))
            rows = homology_rows(2, 3, range(2, 1001))
    finally:
        bounds._homology_params.cache_clear()
    with pytest.raises(AssertionError):
        _assert_homology_rows_print_references(2, range(2, 1001), rows)


def test_forced_straddle_takes_the_fallback(monkeypatch):
    # an error bound of 2^200 times the real one straddles every rounding boundary
    monkeypatch.setattr(bounds, "_ROW_SAFETY_BITS", 200)
    fallbacks = _fallbacks(monkeypatch)
    params = _ktheory()
    degrees = range(2, 1201, 2)

    rows = ktheory_rows(params, degrees, "1/2")

    # every row above the threshold falls back, the strong one once per (n(M), precision)
    pairs = {(params.n_of(m), row.precision_bits) for m, row in zip(degrees, rows[::2]) if params.n_of(m) is not None}
    assert fallbacks.count("ktheory_lower") == len(pairs) and fallbacks.count("weak_lower") == len(degrees)
    strong = [ktheory_lower(params, m) for m in degrees]
    weak = [weak_lower(params, m, Fraction(1, 2)) for m in degrees]
    assert [row.text for row in rows[::2]] == [decimal_str(value) for value in strong]
    assert [row.text for row in rows[1::2]] == [decimal_str(value) for value in weak]
    homology = homology_rows(2, 3, range(2, 400))
    assert fallbacks.count("f_q") == len(homology)
    assert [row.text for row in homology] == [decimal_str(f_q(2, n)) for n in range(2, 400)]


def test_value_near_a_short_decimal_takes_the_fallback(monkeypatch):
    # n(M) = 102: the strong bound is 15474936163125650796.99999999999998..., within
    # 2e-14 of an integer, which prints as ...797.0000 and lies inside [v - e, v + e]
    params = _ktheory()
    m = next(m for m in range(2, 3001, 2) if params.n_of(m) == 102)
    fallbacks = _fallbacks(monkeypatch)
    row = ktheory_rows(params, [m], "1/2")[0]
    assert fallbacks.count("ktheory_lower") == 1
    assert row.text == decimal_str(ktheory_lower(params, m)) == "15474936163125650797.0000"


def _exact(man: int, exp: int) -> Fraction:
    return Fraction(man) * Fraction(2) ** exp


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    m=st.integers(1, 2**4096), k=st.integers(-4096, 0), a=st.integers(-192, 192), b=st.integers(1, 64),
    bits=st.integers(24, 320),
)
@example(m=2**4096, k=0, a=-1, b=1, bits=150)
@example(m=3**48 - 1, k=-76, a=1, b=16, bits=24)  # one below a perfect power
@example(m=3999, k=0, a=10**4300 + 1, b=10**4300, bits=150)  # eps = 1e-4300: rounded to 1
@example(m=3999, k=0, a=127, b=64, bits=142)
def test_power_is_within_its_stated_bound(m, k, a, b, bits):
    y = Fraction(a, b)
    z = bounds._exponent(y, bits)
    assert abs(z - y) <= abs(y) / 2 ** (bits + 1)
    man, exp = bounds._power((m, k), y, bits)
    assert man.bit_length() > bits
    # |ln(r / x^z)| <= c u gives (1 - c u) x^z <= r <= x^z / (1 - c u), here raised to z's denominator
    r, x, near_one = _exact(man, exp), _exact(m, k), 1 - (abs(z) + 2) / Fraction(2) ** (bits - 1)
    power = x**z.numerator
    assert power * near_one**z.denominator <= r**z.denominator <= power / near_one**z.denominator


# root indices past b = 64 up to the seed's reach, where x^(a/b) has no exact check: b = 2^47 + 1
# and 10^20 have their exponents rounded, b = 2^47 - 1 is the longest index Newton takes
@pytest.mark.parametrize("b", [3**29, 10**12 + 39, 2**47 - 1, 2**47 + 1, 10**20])
@pytest.mark.parametrize("a", [1, -1, 7])
def test_power_with_a_long_root_index_is_within_its_stated_bound(a, b):
    for bits in (30, 60, 142, 300):
        y = Fraction(a, b) + a
        z = bounds._exponent(y, bits)
        man, exp = bounds._power((3**1000, -1500), y, bits)
        with mp.workprec(4 * bits + 200):
            exact = (mpf(3**1000) * mpf(2) ** -1500) ** (mpf(z.numerator) / z.denominator)
            assert abs(mp.log(_dyadic(man, exp) / exact)) <= (abs(z) + 2) * mpf(2) ** (1 - bits), bits


@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=st.integers(-(10**80), 10**80), b=st.integers(2**47, 10**80), bits=st.integers(24, 320))
@example(a=10**4300 + 1, b=10**4300, bits=150)
def test_exponent_past_the_seed_is_rounded_within_its_bound(a, b, bits):
    y = Fraction(a, b)
    z = bounds._exponent(y, bits)
    assert abs(z - y) <= abs(y) / 2 ** (bits + 1)
    assert z == y or z.denominator & (z.denominator - 1) == 0  # a power of two: square roots only


# (M, eps): M^(a+b) shorter than F bits, then longer; square roots and Newton roots
@pytest.mark.parametrize("m, eps", [(2, "1/2"), (6, "1/3"), (2, "1/16"), (3999, "64"), (3999, "503/9"), (4000, "1/2")])
def test_root_mantissa_has_more_than_f_bits(m, eps):
    bits, y = bounds._Running(100, 1000, 1, ()).bits, 1 + Fraction(eps)
    root = bounds._power((m, 0), y, bits)
    man, exp = bounds._div((1 << bits, -bits), root)  # 1 / M^(1+eps), as the weak row divides

    assert root[0].bit_length() > bits and man.bit_length() >= bits
    # man 2^exp is 1/M^(1+eps) within _power's |y| + 2 units of 2^(1-F) and the quotient's one
    with mp.workprec(bits + 64):
        exact = mpf(m) ** -(mpf(y.numerator) / y.denominator)
        assert abs(exact - _dyadic(man, exp)) <= exact * (y + 3) * mpf(2) ** (1 - bits)


def test_catalog_covers_every_ktheory_space():
    assert sorted(KTHEORY_SPACES) == sorted(space.name for space in catalog() if space.route == "ktheory")


def _prints_alike_by_fractions(lo, hi) -> bool:
    text = decimal_str(lo)
    return text == decimal_str(hi) and not (Fraction(*_ratio(lo)) <= Fraction(Decimal(text)) <= Fraction(*_ratio(hi)))


def _near_a_short_decimal():
    """(D - a 2^-s, D + b 2^-s) as (lo, hi, -s) for D = d 2^-k, whose decimal is short;
    a = 0 or b = 0 puts D on an end."""
    return st.builds(
        lambda d, k, a, b, s: ((d << s - k) - a, (d << s - k) + b, -s),
        st.integers(-(10**30), 10**30),
        st.integers(0, 12),
        st.integers(0, 2**20),
        st.integers(0, 2**20),
        st.integers(12, 160),
    )


def _anywhere():
    """(m, m + w, k) for m of up to 131 bits and a width w of up to 30 bits."""
    return st.builds(
        lambda m, k, w: (m, m + w, k),
        st.builds(
            lambda sign, top, low: sign * (1 << top) + low,
            st.sampled_from([-1, 1]),
            st.integers(0, 130),
            st.integers(0, 2**60),
        ),
        st.integers(-200, 60),
        st.integers(0, 2**30),
    )


def _on_the_halfway_point(lo, hi) -> bool:
    """True when |hi| is exactly D + ulp(D)/2 (-D - ulp(D)/2 mirrored), D = decimal_str(lo):
    a tie that rounds to D or away from it by the last digit's parity."""
    text = decimal_str(lo).lstrip("-")
    half = Fraction(Decimal(1).scaleb(Decimal(text).as_tuple().exponent)) / 2
    return abs(Fraction(*_ratio(hi))) == Fraction(Decimal(text)) + half


@settings(derandomize=True, deadline=None, max_examples=400)
@given(interval=st.one_of(_near_a_short_decimal(), _anywhere()))
@example(interval=(1, 1, -2))  # [0.25, 0.25] holds D = 0.25
@example(interval=(1 << 80, 2**80 + 1, -82))  # D = 0.25 is the left end
@example(interval=(2**80 - 1, 2**80, -82))  # D = 0.25 is the right end
@example(interval=(-(2**80), -(2**80 - 1), -82))  # D = -0.25 is the left end
@example(interval=(2**79 + 1, 2**81, -82))  # D = 0.125 < lo, hi = 0.5 far above
@example(interval=(2 * 10**23 + 1, 2 * 10**23 + 5, -1))  # D = 10^23 < lo, hi = D + 2.5 = D + ulp/2 + 2
def test_prints_alike_agrees_with_the_fraction_form(interval):
    lo, hi, k = interval
    ends = _dyadic(lo, k), _dyadic(hi, k)
    text = common_text(lo, hi, k)
    if text is not None:
        # never accepts what the fraction form refuses, and prints what decimal_str prints at both ends
        assert _prints_alike_by_fractions(*ends)
        assert text == decimal_str(ends[0]) == decimal_str(ends[1])
    else:
        assert not _prints_alike_by_fractions(*ends) or _on_the_halfway_point(*ends)
