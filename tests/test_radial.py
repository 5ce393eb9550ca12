"""Spherically symmetric superfunctions: expansion, calculus, fundamental solutions."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superharm.grassmann import NumericGrassmann
from superharm.harmonics import UnsupportedSignatureError, harmonic_basis
from superharm.integrate import pizzetti, reduce_integral, sphere_area
from superharm.radial import (
    NumericProfile,
    RadialProfile,
    RadialSuperfunction,
    compose_value,
    euler_profile,
    fundamental_normalization_check,
    fundamental_solution,
    iterated_laplacian_constant,
    laplacian_profile,
    radial_expand,
    radial_gradient,
    radial_power,
)
from superharm.scalar import ExactScalar
from superharm.superpoly import (
    Signature,
    SuperPolynomial,
    euler,
    gradient,
    laplace_beltrami_via_generators,
    laplacian,
    osp_generator,
    r_squared,
)

SIGS = [Signature(3, 1), Signature(2, 1), Signature(1, 1), Signature(2, 2)]


def rising(a: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


# -- profiles -----------------------------------------------------------------


def test_profile_parse_round_trip():
    texts = ["pow(1/2)", "powlog(-3/2)", "exp(1)", "exp(1/2)", "lagexp(1,1/2,1/2)", "poly([1,-2,3/4])"]
    for t in texts:
        p = RadialProfile.parse(t)
        assert isinstance(p, RadialProfile)
        q = RadialProfile.parse(t)
        assert (p - q).is_zero
        assert p == q and hash(p) == hash(q)
        # a zero profile is falsy, a nonzero one truthy
        assert p and not (p - q) and not RadialProfile.zero()
    assert RadialProfile.parse("exp(1/2)").to_text() == "1 e^(-1/2u)"
    # a negative rate is a growing exponential, printed without a doubled sign
    assert RadialProfile.parse("exp(-2)").to_text() == "1 e^(2u)"
    with pytest.raises(ValueError):
        RadialProfile.parse("sinh(1)")
    with pytest.raises(ValueError):
        RadialProfile.parse("poly(1,2)")


def test_profile_exact_hooks():
    assert RadialProfile.power(Fraction(1, 2)).value_exact_at_zero().is_zero
    assert RadialProfile.power(Fraction(-1, 2)).value_exact_at_zero() is None
    assert RadialProfile.power_log(0).value_exact_at_zero() is None
    # u^{1/2} log u -> 0 at the origin
    assert RadialProfile.power_log(Fraction(1, 2)).value_exact_at_zero().is_zero
    v = RadialProfile.exponential(3).value_exact_at_zero()
    assert (v - ExactScalar.rational(1)).is_zero


def test_profile_derivative_and_product():
    # d/du on u^{3/2} log(u) e^{-u}: product rule across all three factors
    p = RadialProfile.power_log(Fraction(3, 2)) * RadialProfile.exponential(1)
    d = p.derivative()
    for u in (0.4, 1.0, 2.3):
        h = 1e-6
        num = (p(u + h) - p(u - h)) / (2 * h)
        assert abs(d(u) - num) < 1e-7 * max(1.0, abs(num))

    # Laguerre-exponential: L_1^{1/2}(u) e^{-u/2} = (3/2 - u) e^{-u/2}
    lp = RadialProfile.laguerre_exp(1, Fraction(1, 2))
    for u in (0.0, 0.7, 2.0):
        assert abs(lp(u) - (1.5 - u) * math.exp(-u / 2)) < 1e-14


def test_numeric_evaluator_fail_fast():
    p = NumericProfile(lambda j, u: math.exp(-u) * (-1) ** j, j_max=2)
    assert p.eval_deriv(2, 1.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError, match="unavailable"):
        p.eval_deriv(3, 1.0)
    # a numeric profile has no arithmetic
    with pytest.raises(TypeError):
        p + RadialProfile.power(1)


def test_numeric_polynomial_derivatives_at_negative_argument():
    # phi(t) = 1 - 2t + (3/2) t^3 at t = -3/2, every order available
    phi = NumericProfile.polynomial([1, -2, 0, Fraction(3, 2)])
    assert phi.j_max == math.inf
    want = [1 + 3 - 1.5 * 3.375, -2 + 4.5 * 2.25, 9 * -1.5, 9.0, 0.0, 0.0]
    assert [phi.eval_deriv(j, -1.5) for j in range(6)] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_compose_exp_i_matches_closed_form(n):
    # an even element v with real body on 4n generators:
    # exp(i s v) = exp(i s body) sum_j (i s nil)^j / j!, and exp(i s v) exp(-i s v) = 1
    rnd = random.Random(n)
    ngen = 4 * n
    body = 0.7
    nil = NumericGrassmann(ngen, {
        mask: rnd.uniform(-1, 1) for mask in range(1, 1 << ngen) if bin(mask).count("1") % 2 == 0
    })
    v = nil + NumericGrassmann.scalar(ngen, body)
    one = NumericGrassmann.scalar(ngen, 1.0)
    for s in (1.0, -1.0, 2.5):
        got = compose_value(NumericProfile.exp_i(s), v, 2 * n)
        want, term = NumericGrassmann(ngen), one
        for j in range(ngen + 1):
            want = want + term * (1.0 / math.factorial(j))
            term = term * nil * (1j * s)
        want = want * cmath.exp(1j * s * body)
        scale = max(abs(c) for c in want.terms.values())
        assert got.max_abs_diff(want) < 1e-13 * scale, s
        back = compose_value(NumericProfile.exp_i(-s), v, 2 * n)
        assert (got * back).max_abs_diff(one) < 1e-12 * scale * scale, s


# -- fermionic Taylor expansion ----------------------------------------------


def _pairs(j):
    """Blade mask of the first j generator pairs: x'^{2j} holds it j! times."""
    return (1 << 2 * j) - 1


def test_expansion_gaussian_explicit():
    # exp(-R^2/2) = e^{-r^2/2} sum_j x'^{2j} / (2^j j!)
    for sig in SIGS:
        p = RadialProfile.exponential(Fraction(1, 2))
        r = 1.2
        v = radial_expand(p, sig, r)
        for j in range(sig.n + 1):
            want = math.exp(-r * r / 2) / 2**j
            assert abs(v.coeff(_pairs(j)) - want) < 1e-14


def test_expansion_power_coefficients():
    # R^alpha: x'^{2j}-coefficient is (-1)^j/j! (alpha/2+1-j)_j r^{alpha-2j}
    sig = Signature(1, 2)
    r = 1.37
    for alpha in (Fraction(1), Fraction(-1), Fraction(7, 2), Fraction(-3)):
        v = radial_power(sig, alpha).expand(r)
        for j in range(sig.n + 1):
            want = (
                Fraction((-1) ** j, math.factorial(j))
                * rising(alpha / 2 + 1 - j, j)
            ) * r ** (float(alpha) - 2 * j)
            got = v.coeff(_pairs(j)) / math.factorial(j)
            assert abs(got - float(want)) < 1e-12 * max(1.0, abs(float(want)))


def test_expansion_blade_values():
    # n=1: value of R = r - x'^2/(2r) and of R^{-1} = 1/r + x'^2/(2 r^3)
    sig = Signature(3, 1)
    r = 1.7
    v = radial_power(sig, 1).expand(r)
    assert abs(v.coeff(0) - r) < 1e-14
    assert abs(v.coeff(0b11) - (-1 / (2 * r))) < 1e-14
    w = radial_power(sig, -1).expand(r)
    assert abs(w.coeff(0) - 1 / r) < 1e-14
    assert abs(w.coeff(0b11) - 1 / (2 * r**3)) < 1e-14


def test_expansion_matches_polynomial_evaluation():
    sig = Signature(2, 2)
    p = RadialProfile.polynomial([Fraction(2), Fraction(-1), Fraction(1, 3)])
    f = RadialSuperfunction(sig, p)
    poly = f.as_polynomial()
    for coords in ([0.5, -0.2], [1.4, 0.3]):
        r = math.sqrt(sum(c * c for c in coords))
        assert f.expand(r).max_abs_diff(poly.evaluate_bosonic(coords)) < 1e-12


def test_even_powers_reduce_to_polynomials():
    for sig in SIGS:
        R2 = r_squared(sig)
        assert (radial_power(sig, 2).as_polynomial() - R2).is_zero
        assert (radial_power(sig, 4).as_polynomial() - R2 * R2).is_zero
    with pytest.raises(ValueError):
        radial_power(Signature(3, 1), 1).as_polynomial()


def test_expansion_guards():
    sig = Signature(1, 2)
    with pytest.raises(ValueError, match="unavailable"):
        radial_expand(NumericProfile(lambda j, u: 0.0, j_max=1), sig, 1.0)
    with pytest.raises(ValueError):
        radial_expand(RadialProfile.exponential(1), sig, 0.0)


def test_product_morphism():
    # (g h)(R^2) = g(R^2) h(R^2), numerically on transcendental profiles
    sig = Signature(2, 2)
    g = RadialProfile.exponential(Fraction(1, 2))
    h = RadialProfile.power(Fraction(3, 2))
    for r in (0.6, 1.3):
        lhs = radial_expand(g * h, sig, r)
        rhs = radial_expand(g, sig, r) * radial_expand(h, sig, r)
        assert lhs.max_abs_diff(rhs) < 1e-13
    # exact on polynomial profiles
    a = RadialProfile.polynomial([1, 2])
    b = RadialProfile.polynomial([0, 0, Fraction(1, 5)])
    pa = RadialSuperfunction(sig, a).as_polynomial()
    pb = RadialSuperfunction(sig, b).as_polynomial()
    assert (RadialSuperfunction(sig, a * b).as_polynomial() - pa * pb).is_zero


def test_power_law():
    sig = Signature(3, 1)
    pa = radial_power(sig, 3).profile * radial_power(sig, -1).profile
    assert (pa - radial_power(sig, 2).profile).is_zero
    pb = radial_power(sig, Fraction(1, 2)).profile * radial_power(sig, Fraction(5, 2)).profile
    assert (pb - radial_power(sig, 3).profile).is_zero


# -- composition --------------------------------------------------------------


def test_compose_square_root_of_fourth_power():
    # h(g(R^2)) with h = sqrt, g = u^2 recovers R^2 pointwise, including the
    # nilpotent part (the composed profile is |u| = u on u > 0)
    sig = Signature(3, 1)
    R4 = r_squared(sig) * r_squared(sig)
    sqrt_prof = RadialProfile.power(Fraction(1, 2))
    for coords in ([0.5, -0.2, 0.9], [1.4, 0.3, -0.8]):
        got = compose_value(sqrt_prof, R4.evaluate_bosonic(coords), sig.n)
        want = r_squared(sig).evaluate_bosonic(coords)
        assert got.max_abs_diff(want) < 1e-12


def test_compose_nilpotent_body():
    # e^{-f} at f = f1 f2: body 0, exact truncated series 1 - f1 f2
    sig = Signature(3, 1)
    f = SuperPolynomial.coordinate(sig, 4) * SuperPolynomial.coordinate(sig, 5)
    v = compose_value(RadialProfile.exponential(1), f.evaluate_bosonic([0.1, 0.2, 0.3]), sig.n)
    assert abs(v.coeff(0) - 1.0) < 1e-15
    assert abs(v.coeff(0b11) + 1.0) < 1e-15


def test_compose_matches_radial_expand():
    # composing h with the plain norm-square polynomial is the expansion itself
    sig = Signature(2, 2)
    h = RadialProfile.exponential(Fraction(1, 3))
    for coords in ([0.8, 0.1], [0.4, -1.0]):
        r = math.sqrt(sum(c * c for c in coords))
        got = compose_value(h, r_squared(sig).evaluate_bosonic(coords), sig.n)
        assert got.max_abs_diff(radial_expand(h, sig, r)) < 1e-13


# -- first-order calculus -----------------------------------------------------


def test_factored_gradient_exact():
    for sig in SIGS:
        hp = RadialProfile.polynomial([Fraction(0), Fraction(1), Fraction(2, 3)])
        f = RadialSuperfunction(sig, hp).as_polynomial()
        vec, prof = radial_gradient(hp, sig)
        profP = RadialSuperfunction(sig, prof).as_polynomial()
        g = gradient(f)
        for k in range(sig.total_vars):
            assert (g[k] - vec[k] * profP).is_zero


def test_euler_profile_exact():
    for sig in SIGS:
        hp = RadialProfile.polynomial([Fraction(5), Fraction(-2), Fraction(1, 2)])
        f = RadialSuperfunction(sig, hp).as_polynomial()
        rhs = RadialSuperfunction(sig, euler_profile(hp)).as_polynomial()
        assert (euler(f) - rhs).is_zero


def test_radial_laplacian_exact():
    for sig in SIGS:
        hp = RadialProfile.polynomial([Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 7)])
        f = RadialSuperfunction(sig, hp).as_polynomial()
        rhs = RadialSuperfunction(sig, laplacian_profile(hp, sig.superdim)).as_polynomial()
        assert (laplacian(f) - rhs).is_zero


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-8, 8), st.sampled_from([1, 2, 3]), st.integers(0, 3),
                          st.integers(-2, 2), st.sampled_from([1, 2]), st.integers(-5, 5),
                          st.sampled_from([-1, 0, 1])), max_size=6),
       st.integers(-6, 6))
def test_laplacian_profile_sweep_matches_composition(terms, M):
    """The one-sweep 4u h'' + 2M h' against the composed derivative route,
    with log and exp factors and negative or fractional powers."""
    h = RadialProfile({(Fraction(bn, bd), d, Fraction(an, ad)): ExactScalar.pi_pow(s, c)
                       for bn, bd, d, an, ad, c, s in terms})
    d1 = h.derivative()
    composed = d1.derivative().mul_power(1) * Fraction(4) + d1 * Fraction(2 * M)
    got = laplacian_profile(h, M)
    assert got == composed
    assert all(got.terms.values())


def test_laplacian_on_radial_times_harmonic():
    # lap(h(R^2) H_k) = 4 R^2 h'' H_k + (4k + 2M) h' H_k, exactly
    sig = Signature(3, 1)
    hp = RadialProfile.polynomial([Fraction(1), Fraction(0), Fraction(1, 2)])
    hP = RadialSuperfunction(sig, hp).as_polynomial()
    d1 = RadialSuperfunction(sig, hp.derivative()).as_polynomial()
    d2 = RadialSuperfunction(sig, hp.derivative().derivative()).as_polynomial()
    for k in (1, 2, 3):
        H = harmonic_basis(sig, k).elements[0]
        lhs = laplacian(hP * H)
        rhs = r_squared(sig) * d2 * H * Fraction(4) + d1 * H * Fraction(
            4 * k + 2 * sig.superdim
        )
        assert (lhs - rhs).is_zero


def test_rotation_casimir_commutes_with_radial():
    sig = Signature(3, 1)
    hp = RadialProfile.polynomial([Fraction(1), Fraction(0), Fraction(1, 2)])
    hP = RadialSuperfunction(sig, hp).as_polynomial()
    f = (
        SuperPolynomial.coordinate(sig, 1) * SuperPolynomial.coordinate(sig, 4)
        + SuperPolynomial.coordinate(sig, 2) ** 2
    )
    lhs = laplace_beltrami_via_generators(hP * f)
    rhs = hP * laplace_beltrami_via_generators(f)
    assert (lhs - rhs).is_zero
    assert laplace_beltrami_via_generators(hP).is_zero


def test_sphere_functional_radial_factorization():
    # boundary functional of h(R^2) g equals h(1) times the functional of g
    for sig in SIGS:
        hp = RadialProfile.polynomial([Fraction(1), Fraction(2), Fraction(-1, 3)])
        hP = RadialSuperfunction(sig, hp).as_polynomial()
        g = SuperPolynomial.coordinate(sig, 1) ** 2
        if sig.n:
            g = g + SuperPolynomial.coordinate(sig, sig.m + 1) * SuperPolynomial.coordinate(sig, sig.m + 2)
        lhs = pizzetti(hP * g)
        h1 = sum(hp.polynomial_coeffs().values())  # h(1)
        rhs = h1 * pizzetti(g)
        assert (lhs - rhs).is_zero


def test_sphere_functional_taylor_surrogate():
    # a float-coefficient Taylor polynomial of e^{-u/2} about u = 1 passes the
    # same factorization exactly, and its value at 1 is the function's
    sig = Signature(3, 1)
    K = 8
    coeffs = [0.0] * (K + 1)
    for k in range(K + 1):
        # expand (u-1)^k contributions into the monomial basis
        c = (-0.5) ** k * math.exp(-0.5) / math.factorial(k)
        for i in range(k + 1):
            coeffs[i] += c * math.comb(k, i) * (-1.0) ** (k - i)
    hp = RadialProfile.polynomial([Fraction(c) for c in coeffs])
    h1 = sum(hp.polynomial_coeffs().values())
    assert abs(h1.to_float() - math.exp(-0.5)) < 1e-15
    hP = RadialSuperfunction(sig, hp).as_polynomial()
    g = SuperPolynomial.coordinate(sig, 1) ** 2
    assert (pizzetti(hP * g) - h1 * pizzetti(g)).is_zero


# -- rotation invariance ------------------------------------------------------


def test_invariance_negative_control():
    # the radial functions are the verify-all row osp-invariance-of-radial-functions;
    # a coordinate and its square are moved by the rotations that mix them
    sig = Signature(3, 1)
    x1 = SuperPolynomial.coordinate(sig, 1)
    for f in (x1, x1 * x1):
        assert not osp_generator(f, 1, 2).is_zero
        assert not osp_generator(f, 1, sig.m + 1).is_zero
        assert osp_generator(f, 2, 3).is_zero


# -- fundamental solutions ----------------------------------------------------


def test_normalization_constants():
    assert iterated_laplacian_constant(0, 1) == -2
    assert (iterated_laplacian_constant(0, 3) - ExactScalar.pi_pow(2, 4)).is_zero
    assert iterated_laplacian_constant(1, 1) == 12
    with pytest.raises(ValueError):
        iterated_laplacian_constant(0, 2)


def test_normalization_chain():
    for sig, l, want in [
        (Signature(3, 1), 1, ExactScalar.rational(-2)),
        (Signature(5, 1), 1, ExactScalar.pi_pow(2, 4)),
        (Signature(3, 1), 2, ExactScalar.rational(12)),
    ]:
        lhs, rhs = fundamental_normalization_check(sig, l)
        assert (lhs - rhs).is_zero
        assert (lhs - want).is_zero
    for sig in (Signature(5, 2), Signature(1, 2)):
        for l in (1, 2, 3):
            lhs, rhs = fundamental_normalization_check(sig, l)
            assert (lhs - rhs).is_zero


def test_newton_potential_profiles():
    # M = 1 family at (3,1): -R/2, R^3/12, -R^5/240
    sig = Signature(3, 1)
    for l, want in [
        (1, RadialProfile.power(Fraction(1, 2)) * Fraction(-1, 2)),
        (2, RadialProfile.power(Fraction(3, 2)) * Fraction(1, 12)),
        (3, RadialProfile.power(Fraction(5, 2)) * Fraction(-1, 240)),
    ]:
        assert (fundamental_solution(sig, l).profile - want).is_zero
    # purely bosonic check: lap(1/(4 pi r)) = -delta in three dimensions, so
    # l = 1 at (3,0) must carry the positive coefficient 1/(4 pi)
    nu = fundamental_solution(Signature(3, 0), 1)
    want = RadialProfile.power(Fraction(-1, 2)) * (
        ExactScalar.rational(1) / ExactScalar.pi_pow(2, 4)
    )
    assert (nu.profile - want).is_zero


def test_newton_potential_expansion():
    # nu_2 at (3,1): body -r/2, top blade +1/(4r)
    sig = Signature(3, 1)
    v = fundamental_solution(sig, 1).expand(2.0)
    assert abs(v.coeff(0) + 1.0) < 1e-14
    assert abs(v.coeff(0b11) - 0.125) < 1e-14


@pytest.mark.parametrize(
    "m,n,l",
    [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 2, 1), (5, 2, 3), (1, 1, 2),
     (4, 1, 1), (4, 1, 2), (4, 1, 3), (2, 0, 1), (6, 1, 1), (6, 1, 2)],
)
def test_iterated_laplacian_annihilates(m, n, l):
    sig = Signature(m, n)
    nu = fundamental_solution(sig, l)
    p = nu.profile
    for _ in range(l):
        p = laplacian_profile(p, sig.superdim)
    assert p.is_zero


def test_even_superdimension_branches():
    # below threshold: plain power; at or above: power times log
    low = fundamental_solution(Signature(6, 1), 1)  # M = 4, l < M/2
    assert low.profile.polynomial_coeffs() is None
    assert all(d == 0 for (_, d, _) in low.profile.terms)
    high = fundamental_solution(Signature(6, 1), 2)
    assert any(d == 1 for (_, d, _) in high.profile.terms)


def test_degenerate_superdimension_rejected():
    for sig in (Signature(2, 1), Signature(2, 2), Signature(4, 3)):
        with pytest.raises(UnsupportedSignatureError):
            fundamental_solution(sig, 1)


def test_mean_value_weight():
    # E nu_2 = -(1/sigma_M) u^{(2-M)/2}, so it is -1/sigma_M on the unit
    # sphere; paired with the radial factorization this reproduces -h(0) on
    # harmonic arguments
    for sig in (Signature(3, 1), Signature(1, 1), Signature(3, 2), Signature(3, 0)):
        M = sig.superdim
        w = euler_profile(fundamental_solution(sig, 1).profile)
        assert (w * sphere_area(M) + RadialProfile.power(Fraction(2 - M, 2))).is_zero


# -- scalar reduction of full-space integrals ---------------------------------


def _tofl(x):
    return x.to_float() if hasattr(x, "to_float") else float(x)


@pytest.mark.parametrize("m,n", [(3, 1), (2, 1), (1, 1), (2, 2), (1, 2), (3, 2)])
def test_reduce_integral_gaussian(m, n):
    sig = Signature(m, n)
    got = reduce_integral(RadialProfile.exponential(1), sig)
    want = math.pi ** (sig.superdim / 2)
    assert abs(_tofl(got) - want) <= 1e-10 * max(1.0, abs(want))


def test_reduce_integral_moments():
    sig = Signature(3, 1)
    got = reduce_integral(RadialProfile.exponential(Fraction(1, 2)), sig)
    assert abs(_tofl(got) - (2 * math.pi) ** 0.5) < 1e-12

    prof = RadialProfile.polynomial([0, 1]) * RadialProfile.exponential(1)
    got = reduce_integral(prof, sig)
    assert abs(_tofl(got) - 0.5 * math.pi**0.5) < 1e-12

    # purely fermionic superdimension -2: the value is the first derivative at
    # zero with a sign, here exactly -1/pi
    got = reduce_integral(prof, Signature(2, 2))
    assert (got - ExactScalar.pi_pow(-2, -1)).is_zero

    got = reduce_integral(RadialProfile.exponential(1), Signature(1, 1))
    assert abs(_tofl(got) - math.pi**-0.5) < 1e-12

    # u^9 e^{-u}: the Gamma moment 4 pi Gamma(21/2) / 2 ~ 7e6
    prof = RadialProfile.power(9) * RadialProfile.exponential(1)
    got = reduce_integral(prof, Signature(3, 0))
    want = 2 * math.pi * math.gamma(10.5)
    assert abs(_tofl(got) - want) < 1e-12 * want
