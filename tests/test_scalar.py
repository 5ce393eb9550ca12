"""Exact scalar field, gamma machinery, and the shared special functions."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from superharm.scalar import (
    ExactScalar,
    GammaPoleError,
    bessel_j,
    bessel_profile,
    gamma_exact,
    laguerre_coeffs,
    laguerre_row,
    pochhammer,
    recip_gamma,
    sphere_area,
)
from superharm.harmonics import kernel_values

H = Fraction(1, 2)


# -- ExactScalar ring ---------------------------------------------------------


def test_scalar_basic_arithmetic():
    a = ExactScalar.rational(Fraction(3, 2))
    b = ExactScalar.pi_pow(1)          # pi^(1/2)
    c = a + b
    assert c.terms == {0: Fraction(3, 2), 1: Fraction(1)}
    assert (b * b).terms == {2: Fraction(1)}          # sqrt(pi)^2 = pi
    assert (c - c).is_zero
    assert (c - c).terms == {} and not (c - c) and c
    assert (b * 0).is_zero


def test_scalar_division_by_monomial():
    a = ExactScalar({2: Fraction(4), 0: Fraction(1)})
    d = a / ExactScalar.pi_pow(2, 2)
    assert d.terms == {0: Fraction(2), -2: Fraction(1, 2)}
    with pytest.raises(ZeroDivisionError):
        a / (ExactScalar.rational(1) + ExactScalar.pi_pow(2))


def test_scalar_eq_with_rationals():
    assert ExactScalar.rational(3) == 3
    assert ExactScalar() == 0
    assert ExactScalar.pi_pow(2) != 3
    # equal to a rational, so hashed like it
    assert {3: "a"}.get(ExactScalar.rational(3)) == "a"
    assert hash(ExactScalar()) == hash(0)


def test_scalar_float_value():
    v = ExactScalar({2: Fraction(2), 0: Fraction(-1)})  # 2*pi - 1
    assert v.to_float() == pytest.approx(2 * math.pi - 1, rel=1e-15)


def test_scalar_text_round_trip_examples():
    cases = [
        ExactScalar(),
        ExactScalar.rational(Fraction(-7, 3)),
        ExactScalar.pi_pow(1),
        ExactScalar.pi_pow(-1, Fraction(-1, 2)),
        ExactScalar({4: Fraction(3), 0: Fraction(1, 6), -3: Fraction(-2, 5)}),
    ]
    for v in cases:
        assert ExactScalar.parse(v.to_text()) == v


@given(st.dictionaries(st.integers(-6, 6),
                       st.fractions(max_denominator=40), max_size=5))
def test_scalar_text_round_trip_random(d):
    v = ExactScalar(d)
    assert ExactScalar.parse(v.to_text()) == v


@given(st.dictionaries(st.integers(-4, 4), st.fractions(max_denominator=20), max_size=4),
       st.dictionaries(st.integers(-4, 4), st.fractions(max_denominator=20), max_size=4))
def test_scalar_mul_distributes(da, db):
    a, b = ExactScalar(da), ExactScalar(db)
    assert (a + b) * a == a * a + b * a


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
_TERMS = st.dictionaries(st.integers(-6, 6), _SMALL_FRACTIONS, max_size=3)
_PLAIN = st.one_of(st.integers(-3, 3), _SMALL_FRACTIONS)


def _convolve(da, db):
    """The product of two sums  sum_s q_s pi^(s/2), as plain dicts."""
    out = {}
    for s, p in da.items():
        for t, q in db.items():
            out[s + t] = out.get(s + t, 0) + p * q
    return {k: v for k, v in out.items() if v}


def _add(da, db):
    return {k: v for k in da.keys() | db.keys() if (v := da.get(k, 0) + db.get(k, 0))}


def _assert_terms(v, expect):
    # to_text prints the stored coefficients, so they must be nonzero Fractions
    assert type(v) is ExactScalar and v.terms == expect
    assert all(type(q) is Fraction and q for q in v.terms.values())


@example({0: Fraction(1), 2: Fraction(1)}, {0: Fraction(1), -2: Fraction(-1)}, 0)
@given(_TERMS, _TERMS, _PLAIN)
def test_scalar_ring_matches_dict_convolution(da, db, c):
    a, b = ExactScalar(da), ExactScalar(db)
    _assert_terms(a * b, _convolve(da, db))
    _assert_terms(a * c, _convolve(da, {0: c}))
    _assert_terms(c * a, _convolve(da, {0: c}))
    _assert_terms(a + b, _add(da, db))
    _assert_terms(a + c, _add(da, {0: c}))
    _assert_terms(c + a, _add(da, {0: c}))


def test_scalar_division_from_the_left():
    sigma = sphere_area(3)  # 4 pi
    assert 1 / sigma == ExactScalar.pi_pow(-2, Fraction(1, 4))
    assert Fraction(2, 3) / sigma == ExactScalar.pi_pow(-2, Fraction(1, 6))
    with pytest.raises(ZeroDivisionError):
        1 / (sigma + 1)


def test_scalar_parse_refuses_empty_text():
    for text in ("", "  ", "+"):
        with pytest.raises(ValueError):
            ExactScalar.parse(text)


def test_scalar_parse_minus():
    assert ExactScalar.parse("1/2 - 3*pi^(1/2)") == ExactScalar.parse("1/2 + -3*pi^(1/2)")
    assert ExactScalar.parse("- 1") == ExactScalar.parse("1 + - 2") == -1
    with pytest.raises(ValueError):
        ExactScalar.parse("1 - ")


def test_scalar_on_the_left_defers_to_the_other_algebra():
    # the product used to raise "expected int or Fraction, got SuperPolynomial"
    from superharm.radial import RadialProfile
    from superharm.superpoly import Signature, SuperPolynomial

    c = ExactScalar.pi_pow(1, Fraction(2, 3))
    for other in (SuperPolynomial.parse("x1^2 + f1 f2", Signature(3, 1)), RadialProfile.power(1)):
        assert c * other == other * c
        assert not (c * other).is_zero
    for foreign in ("x1", 0.5):
        with pytest.raises(TypeError):
            c * foreign


# -- gamma machinery ----------------------------------------------------------


def test_recip_gamma_spec_values():
    assert recip_gamma(H) == ExactScalar.pi_pow(-1)                      # 1/Gamma(1/2)
    assert recip_gamma(-H) == ExactScalar.pi_pow(-1, Fraction(-1, 2))    # Gamma(-1/2) = -2 sqrt(pi)
    assert recip_gamma(-1) == 0
    assert recip_gamma(0) == 0
    assert recip_gamma(5) == Fraction(1, 24)


@pytest.mark.parametrize("z", [Fraction(p, 2) for p in range(-9, 10) if p != 0])
def test_recip_gamma_recursion(z):
    # 1/Gamma(z+1) = (1/z) * 1/Gamma(z)
    assert recip_gamma(z + 1) == recip_gamma(z) / ExactScalar.rational(z)


@pytest.mark.parametrize("a,j", [(H, 3), (Fraction(-3, 2), 2), (2, 4), (Fraction(5, 2), 0)])
def test_pochhammer_vs_gamma(a, j):
    # (a)_j = Gamma(a+j)/Gamma(a) where both sides are finite
    lhs = ExactScalar.rational(pochhammer(a, j)) * recip_gamma(a + j)
    assert lhs == recip_gamma(a)


def test_pochhammer_spec_values():
    assert pochhammer(H, 1) == H
    assert pochhammer(-H, 2) == Fraction(-1, 4)
    assert pochhammer(Fraction(7, 3), 0) == 1


def test_gamma_exact_poles():
    with pytest.raises(GammaPoleError):
        gamma_exact(0)
    with pytest.raises(GammaPoleError):
        gamma_exact(-3)
    assert gamma_exact(H) == ExactScalar.pi_pow(1)
    assert gamma_exact(4) == 6


def test_sphere_area_values():
    assert sphere_area(1) == 2
    assert sphere_area(2) == ExactScalar.pi_pow(2, 2)
    assert sphere_area(3) == ExactScalar.pi_pow(2, 4)          # 4*pi
    assert sphere_area(-2) == 0
    assert sphere_area(0) == 0
    assert sphere_area(-4) == 0
    # odd negative dimensions stay nonzero: sigma_{-1} = 2 pi^{-1/2} / Gamma(-1/2) = -1/pi
    assert sphere_area(-1) == ExactScalar.pi_pow(-2, -1)
    assert not sphere_area(-3).is_zero


def test_sphere_area_shared_and_unmutated():
    """``sphere_area`` is built once per M; using it leaves it as built."""
    from superharm.integrate import pizzetti, superball_poly
    from superharm.superpoly import Signature, SuperPolynomial

    sigma = sphere_area(3)
    built = dict(sigma.terms)
    f = SuperPolynomial.parse("x1^2 + 1/2 x2 f1 f2 + x3^4", Signature(3, 1))
    for g in (sigma * 2, sigma * sigma, sigma + 1, -sigma, sigma - sigma, sigma / 4,
              pizzetti(f), superball_poly(f), sphere_area(3) * Fraction(1, 3)):
        assert g is not sigma
    assert sphere_area(3) is sigma and sigma.terms == built
    assert sigma == ExactScalar.pi_pow(2, 4)
    with pytest.raises(TypeError):   # the cache is typed: a float still raises
        sphere_area(3.0)


# -- orthogonal polynomials ---------------------------------------------------


def test_laguerre_low_orders():
    assert laguerre_row(0, 1.5, 0.7) == [1.0]
    # L_1^q(u) = 1 + q - u
    assert laguerre_row(1, 2.0, 0.3)[1] == pytest.approx(3.0 - 0.3, rel=1e-14)
    with pytest.raises(ValueError):
        laguerre_row(-1, 0.5, 1.0)


@pytest.mark.parametrize("p,q", [(0, H), (1, Fraction(3, 2)), (3, 0), (5, Fraction(-1, 2)), (4, 2)])
def test_laguerre_matches_exact_coeffs(p, q):
    for u in (0.0, 0.4, 1.7, 6.0):
        row = laguerre_row(p, float(q), u)
        assert len(row) == p + 1
        for i, value in enumerate(row):
            poly = sum(float(c) * u**e for e, c in enumerate(laguerre_coeffs(i, q)))
            assert value == pytest.approx(poly, rel=1e-12, abs=1e-12)


def test_laguerre_coeffs_refuse_negative_degree():
    with pytest.raises(ValueError):
        laguerre_coeffs(-1, 0)


def test_laguerre_orthogonality_numeric():
    # integral_0^inf u^q e^-u L_p L_p' du = 0 for p != p'
    q = 1.5
    with mpmath.workdps(30):
        val = mpmath.quad(
            lambda u: u**q * mpmath.e**-u * laguerre_row(2, q, float(u))[2] * laguerre_row(4, q, float(u))[4],
            [0, mpmath.inf],
        )
    assert abs(float(val)) < 1e-12


def binom_frac(top, k: int) -> Fraction:
    """binom(top, k) = (top-k+1)_k / k! for rational top, exact."""
    return pochhammer(Fraction(top) - k + 1, k) / math.factorial(k)


def test_binom_frac():
    assert binom_frac(5, 2) == 10
    assert binom_frac(H, 2) == Fraction(-1, 8)
    assert binom_frac(0, 1) == 0


def _kernel_ratio(l, M, t):
    """The degree-l reproducing kernel recurrence at u = 1, normalized to 1
    at t = 1 (its M = 2 limit rule gives Chebyshev)."""
    return kernel_values(M, l, t, 1.0)[l] / kernel_values(M, l, 1.0, 1.0)[l]


def test_jacobi_normalized_at_one():
    # normalization: value 1 at t = 1, including the Chebyshev case M = 2
    for l, M in [(0, 3), (1, 3), (2, 3), (3, 4), (2, 5), (0, 2), (3, 2)]:
        assert _kernel_ratio(l, M, 1.0) == pytest.approx(1.0, rel=1e-12)
    # M = 2 is T_l itself
    assert _kernel_ratio(3, 2, 0.5) == pytest.approx(4 * 0.5**3 - 3 * 0.5, rel=1e-12)


def test_legendre_kernel_matches_jacobi_oracle():
    # the kernel recurrence against the normalized Jacobi form it replaced;
    # the values are bounded by their value 1 at t = 1
    import scipy.special

    for M in range(2, 9):
        a = (M - 3) / 2
        for l in range(9):
            norm = float(binom_frac(Fraction(M - 3, 2) + l, l))
            for t in [k / 10 - 1 for k in range(21)]:
                want = float(scipy.special.eval_jacobi(l, a, a, t)) / norm
                assert abs(_kernel_ratio(l, M, t) - want) <= 1e-12 * max(1.0, abs(want)), (M, l, t)


# -- Bessel -------------------------------------------------------------------


def test_bessel_half_order_closed_form():
    for t in (0.5, 1.0, math.pi, 7.0):
        assert bessel_j(H, t) == pytest.approx(math.sqrt(2 / (math.pi * t)) * math.sin(t), rel=1e-12)
    assert abs(bessel_j(H, math.pi)) < 1e-15


def test_bessel_small_argument_limit():
    # J_nu(t)/t^nu -> 1/(2^nu Gamma(nu+1))
    for nu in (0.0, 0.5, 1.0, 2.5):
        t = 1e-6
        lim = 1 / (2**nu * math.gamma(nu + 1))
        assert bessel_j(nu, t) / t**nu == pytest.approx(lim, rel=1e-8)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for nu in (H, 1, 2.5, 4):
        assert bessel_j(nu, 0.0) == 0.0


def test_bessel_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(1, -0.5)


def test_bessel_profile_at_zero_and_derivative():
    for nu in (0.0, 0.5, 1.5, 3.0):
        assert bessel_profile(nu, 0.0) == pytest.approx(1 / (2**nu * math.gamma(nu + 1)), rel=1e-13)
    # W_nu'(s) = -W_{nu+1}(s)/2, checked by central differences
    for nu, s in [(0.5, 1.3), (1.0, 2.0), (2.5, 0.7)]:
        h = 1e-6
        num = (bessel_profile(nu, s + h) - bessel_profile(nu, s - h)) / (2 * h)
        assert num == pytest.approx(-bessel_profile(nu + 1, s) / 2, rel=1e-7)


def test_bessel_profile_even_in_sqrt():
    # W_nu(u^2) * u^nu = J_nu(u)
    for nu, u in [(0.5, 1.7), (2.0, 3.2)]:
        assert bessel_profile(nu, u * u) * u**nu == pytest.approx(bessel_j(nu, u), rel=1e-12)


def _bessel_profile_oracle(nu, s):
    """W_nu(s) at 30 digits from mpmath's J_nu (its limit at s = 0), and the
    sum of the absolute values of its power-series terms, which scales the
    rounding error of the float series."""
    with mpmath.workdps(30):
        nu, x = mpmath.mpf(nu), mpmath.mpf(s) / 4
        if s == 0:
            want = mpmath.rgamma(nu + 1) / 2**nu
        else:
            r = mpmath.sqrt(mpmath.mpf(s))
            want = mpmath.besselj(nu, r) / r**nu
        scale = abs(mpmath.rgamma(nu + 1)) + mpmath.nsum(
            lambda k: x**k * abs(mpmath.rgamma(nu + k + 1)) / mpmath.factorial(k), [1, mpmath.inf]
        )
        return float(want), float(scale / 2**nu)


def test_bessel_profile_series_over_pinned_range():
    # -4 <= nu <= 100, 0 <= s <= 100: the CLI reaches -7/2 <= nu <= 85 and
    # s <= 14.75 (mehler, m <= 6, n <= 3, coordinates in +-0.8, K <= 80),
    # hille_hardy_check s <= 6, the tests s = 49 (J_1/2(7)) and s = 81
    nus = [-4.0 + 0.5 * i for i in range(0, 30)] + [20.5, 41.0, 60.5, 85.0, 100.0]
    for nu in nus:
        for s in (0.0, 1e-12, 0.01, 0.5, 1.0, 4.0, 6.0, 14.75, 25.0, 49.0, 81.0, 100.0):
            want, scale = _bessel_profile_oracle(nu, s)
            got = bessel_profile(nu, s)
            assert abs(got - want) <= 4e-15 * scale, (nu, s, got, want)
    for nu, s in ((-4.5, 1.0), (100.5, 1.0), (1.0, 100.5), (1.0, -1e-300), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            bessel_profile(nu, s)
