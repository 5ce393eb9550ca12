"""Grassmann algebra as the purely odd polynomials on R^{1|2n}: signs,
derivatives, the odd norm, the Berezin integral, and the numeric twin."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superharm.grassmann import NumericGrassmann, blade_mul
from superharm.scalar import ExactScalar
from superharm.superpoly import Signature, SuperPolynomial, dferm, fermi_norm_poly, laplacian

ODD = (0,)  # the exponent of x1: every element here is purely odd


def odd(ngen, terms):
    """The purely odd polynomial sum c * blade on R^{1|ngen}."""
    return SuperPolynomial(Signature(1, ngen // 2), {(ODD, mask): c for mask, c in terms.items()})


def gen(ngen, j):
    return SuperPolynomial.coordinate(Signature(1, ngen // 2), 1 + j)


def laplacian_power_constant(e, n):
    """Constant term of lap^n(e): 4^n n! times the top coefficient (Berezin)."""
    for _ in range(n):
        e = laplacian(e)
    return e.constant_term()


# -- products -----------------------------------------------------------------


def test_blade_products():
    g1, g2 = gen(4, 1), gen(4, 2)
    assert (g1 * g2).terms == {(ODD, 0b11): ExactScalar.rational(1)}
    assert (g2 * g1).terms == {(ODD, 0b11): ExactScalar.rational(-1)}
    assert (g1 * g1).is_zero


def test_blade_mul_overlap_none():
    assert blade_mul(0b101, 0b100) is None
    assert blade_mul(0b001, 0b110) == (1, 0b111)
    # g3 * g1g2: two hops for nothing below... check: merging {3} into {1,2}
    assert blade_mul(0b100, 0b011) == (1, 0b111)
    assert blade_mul(0b010, 0b001) == (-1, 0b011)


def random_element(ngen, rnd_masks, rnd_coeffs):
    terms = {}
    for mask, c in zip(rnd_masks, rnd_coeffs):
        terms[mask % (1 << ngen)] = terms.get(mask % (1 << ngen), ExactScalar()) + ExactScalar.rational(c)
    return odd(ngen, terms)


masks = st.lists(st.integers(0, 63), min_size=1, max_size=5)
coeffs = st.lists(st.fractions(max_denominator=10), min_size=5, max_size=5)


@settings(max_examples=60)
@given(masks, masks, masks, coeffs, coeffs, coeffs)
def test_product_associative(ma, mb, mc, ca, cb, cc):
    a = random_element(6, ma, ca)
    b = random_element(6, mb, cb)
    c = random_element(6, mc, cc)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(st.integers(0, 63), st.integers(0, 63), st.fractions(max_denominator=8), st.fractions(max_denominator=8))
def test_graded_commutativity(m1, m2, c1, c2):
    a = odd(6, {m1: ExactScalar.rational(c1)})
    b = odd(6, {m2: ExactScalar.rational(c2)})
    sign = -1 if (m1.bit_count() & 1) and (m2.bit_count() & 1) else 1
    assert a * b == b * a * Fraction(sign)


# -- derivatives --------------------------------------------------------------


def test_fermi_derivative_leibniz_examples():
    g12 = gen(2, 1) * gen(2, 2)
    assert dferm(g12, 1) == gen(2, 2)
    assert dferm(g12, 2) == -gen(2, 1)
    assert dferm(gen(2, 2), 1).is_zero


@settings(max_examples=40)
@given(masks, coeffs, st.integers(1, 6), st.integers(1, 6))
def test_fermi_derivatives_anticommute(ms, cs, j, k):
    e = random_element(6, ms, cs)
    djk = dferm(dferm(e, k), j)
    dkj = dferm(dferm(e, j), k)
    assert djk == -dkj
    assert dferm(dferm(e, j), j).is_zero


def test_derivative_index_range():
    with pytest.raises(ValueError):
        dferm(gen(2, 1), 3)
    with pytest.raises(ValueError, match="outside"):
        odd(2, {0b100: 1})


# -- the odd norm -------------------------------------------------------------


def test_fermi_norm_poly_shapes():
    assert fermi_norm_poly(Signature(1, 1)) == gen(2, 1) * gen(2, 2)
    n2 = fermi_norm_poly(Signature(1, 2))
    assert n2.coeff(ODD, 0b0011) == 1
    assert n2.coeff(ODD, 0b1100) == 1
    # x'^4 = 2 * x'_1 x'_2 x'_3 x'_4 for n = 2
    assert (n2**2).coeff(ODD, 0b1111) == 2
    assert (n2**3).is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_power_is_factorial_times_top_blade(n):
    top = fermi_norm_poly(Signature(1, n)) ** n
    assert top.terms == {(ODD, (1 << (2 * n)) - 1): ExactScalar.rational(math.factorial(n))}


@settings(max_examples=30)
@given(masks, coeffs)
def test_norm_sq_is_central(ms, cs):
    e = random_element(6, ms, cs)
    nsq = fermi_norm_poly(Signature(1, 3))
    assert nsq * e == e * nsq


# -- Berezin ------------------------------------------------------------------


def test_berezin_basic_values():
    n = 2
    scale = 4**n * math.factorial(n)
    top = gen(4, 1) * gen(4, 2) * gen(4, 3) * gen(4, 4)
    assert laplacian_power_constant(top, n) == scale
    assert laplacian_power_constant(SuperPolynomial.constant(Signature(1, n), 1), n) == 0
    # the integral of x'^{2n} is n! times that of the top blade
    norm_top = fermi_norm_poly(Signature(1, n)) ** n
    assert laplacian_power_constant(norm_top, n) == scale * math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_berezin_dual_route(n):
    # top-coefficient route vs iterated Laplacian route
    import random

    rnd = random.Random(5 + n)
    for _ in range(8):
        terms = {
            rnd.randrange(1 << (2 * n)): ExactScalar.rational(Fraction(rnd.randrange(-9, 10), rnd.randrange(1, 5)))
            for _ in range(4)
        }
        e = odd(2 * n, terms)
        top = e.coeff(ODD, (1 << (2 * n)) - 1)
        assert top * (4**n * math.factorial(n)) == laplacian_power_constant(e, n)


def test_laplacian_of_fermi_norm_poly():
    # -4 sum d_{2j-1} d_{2j} applied to sum_k g_{2k-1}g_{2k}: each pair gives
    # d_{2j}(g_{2j-1}g_{2j}) = -g_{2j-1} (one hop), then d_{2j-1} -> -1, so +4n.
    # Consistent with lap(R^2) = 2m - 4n = 2M given the minus sign in R^2 = r^2 - nsq.
    for n in (1, 2, 3):
        sig = Signature(1, n)
        assert laplacian(fermi_norm_poly(sig)) == SuperPolynomial.constant(sig, 4 * n)


# -- numeric twin -------------------------------------------------------------


def test_numeric_grassmann_matches_exact():
    a = gen(4, 1) * 3 + gen(4, 2) * gen(4, 3) * Fraction(1, 2)
    b = gen(4, 4) - SuperPolynomial.constant(Signature(1, 2), 2)
    exact = a * b
    na = a.evaluate_bosonic([1.0])
    nb = b.evaluate_bosonic([1.0])
    prod = na * nb
    assert prod.max_abs_diff(exact.evaluate_bosonic([1.0])) < 1e-14


def test_numeric_grassmann_power_and_scalar():
    n = 2
    nsq = fermi_norm_poly(Signature(1, n)).evaluate_bosonic([1.0])
    # the literal that radial.fermionic_expansion builds
    assert nsq == NumericGrassmann(2 * n, {0b0011: 1.0, 0b1100: 1.0})
    sq = nsq.power(n)
    assert sq.coeff((1 << (2 * n)) - 1) == pytest.approx(math.factorial(n))
    zero = nsq.power(n + 1)
    assert all(abs(v) < 1e-15 for v in zero.terms.values())
    assert (nsq * 0.0).terms == {} and not nsq * 0.0
    # the numeric twin used to mix ranks silently
    with pytest.raises(ValueError):
        NumericGrassmann(2) + NumericGrassmann(4)
    with pytest.raises(ValueError):
        nsq * NumericGrassmann.scalar(2 * n + 2, 1.0)


def test_numeric_grassmann_scales_by_fractions_as_by_floats():
    # kernel_values scales by Fraction(1, i); on floats it must round as 1.0 / i
    v = NumericGrassmann(4, {0: 0.7, 0b0011: -1.3 + 0.2j, 0b1111: 1e-300})
    for i in (3, 7, 11):
        assert (v * Fraction(1, i)).terms == (v * (1 / i)).terms
        assert (Fraction(2, i) * v).terms == ((2 / i) * v).terms
