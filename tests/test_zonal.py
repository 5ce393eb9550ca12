"""Sphere transforms of two-point zonal kernels, Hankel/Bessel transforms,
oscillator eigenfunctions, and the Bessel-kernel expansion of the Fourier
kernel."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate
import scipy.special

from superharm.grassmann import NumericGrassmann
from superharm.harmonics import (
    UnsupportedSignatureError,
    harmonic_basis,
    reproducing_kernel,
)
from superharm.integrate import pizzetti, quad_0_inf
from superharm.radial import NumericProfile, RadialProfile, fermionic_expansion, radial_expand
from superharm.scalar import ExactScalar, bessel_j, bessel_profile, laguerre_row, sphere_area
from superharm.superpoly import Signature, SuperPolynomial, osp_generator, pairing
from superharm import zonal as Z


def _is_zero_poly(p):
    return all(c.is_zero for c in p.terms.values())


# -- exact sphere transform ---------------------------------------------------


@pytest.mark.parametrize("M", [3, 5, 2, -1, -3])
def test_alpha_monomial_examples(M):
    sM = sphere_area(M)
    assert (Z.funk_hecke_alpha_monomial(M, 0, 0) - sM).is_zero
    assert (Z.funk_hecke_alpha_monomial(M, 1, 1) - sM * Fraction(1, M)).is_zero
    assert Z.funk_hecke_alpha_monomial(M, 0, 1).is_zero      # odd parity
    assert Z.funk_hecke_alpha_monomial(M, 1, 2).is_zero      # odd parity
    assert Z.funk_hecke_alpha_monomial(M, 3, 1).is_zero      # k < l


def test_alpha_monomial_classical_value():
    # M = 3, l = 0, k = 2: 2 pi int_{-1}^{1} t^2 dt = 4 pi / 3
    got = Z.funk_hecke_alpha_monomial(3, 0, 2)
    assert (got - ExactScalar.pi_pow(2, Fraction(4, 3))).is_zero


SIGS = [(3, 1), (2, 1), (4, 2), (2, 2)]


@pytest.mark.parametrize("m,n", SIGS)
def test_sphere_transform_matches_double_integral(m, n):
    """Closed form for the transform of t^k H_l equals the full two-point
    sphere integral (x-copy Pizzetti on the doubled algebra), exactly --
    including at degenerate even superdimension."""
    sig = Signature(m, n)
    t = pairing(sig)
    for k in range(7):
        for l in range(0, min(k, 4) + 1):
            if (k - l) % 2:
                continue
            H = harmonic_basis(sig, l).elements[0]
            lhs = pizzetti(t**k * H.embed_doubled(), copy=0)
            rhs = Z.funk_hecke_poly(sig, [0] * k + [1], H, l)
            assert _is_zero_poly(lhs - rhs), (m, n, k, l)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 1)])
def test_sphere_transform_general_polynomial(m, n):
    sig = Signature(m, n)
    coeffs = [Fraction(1), Fraction(2), Fraction(0), Fraction(1), Fraction(1, 3)]
    t = pairing(sig)
    p = SuperPolynomial.zero(sig, 2)
    for k, c in enumerate(coeffs):
        p = p + t**k * ExactScalar.coerce(c)
    for l in (0, 1, 2):
        H = harmonic_basis(sig, l).elements[0]
        lhs = pizzetti(p * H.embed_doubled(), copy=0)
        rhs = Z.funk_hecke_poly(sig, coeffs, H, l)
        assert _is_zero_poly(lhs - rhs)


def test_zonal_invariance_exact():
    """The mixed two-point operators annihilate polynomials in the pairing;
    the reproducing kernels (which also carry Rx^2 Ry^2 terms) are killed by
    the diagonal rotation generators acting on both copies at once."""
    for (m, n) in ((3, 1), (2, 1)):
        sig = Signature(m, n)
        t = pairing(sig)
        for f in [t**p for p in (1, 2, 3)]:
            for i in range(1, sig.total_vars + 1):
                for j in range(1, sig.total_vars + 1):
                    assert _is_zero_poly(osp_generator(f, i, j, cross=(0, 1))), (m, n, i, j)
        if sig.superdim % 2 or sig.superdim > 0:
            for F in [reproducing_kernel(sig, k) for k in (1, 2, 3)]:
                for i in range(1, sig.total_vars + 1):
                    for j in range(1, sig.total_vars + 1):
                        L = osp_generator(F, i, j, copy=0) + osp_generator(F, i, j, copy=1)
                        assert _is_zero_poly(L), (m, n, i, j)


# -- quadrature route ---------------------------------------------------------


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_alpha_numeric_matches_exact_polynomial(M):
    cubic = [Fraction(1), Fraction(0), Fraction(2), Fraction(1)]
    # degree 9 = l + 2 n_der at l = 3: the top derivative the route reads is nonzero
    nonic = [Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(1), Fraction(-2),
             Fraction(1, 3), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(1, 4)]
    u = 0.8
    for coeffs, l, n_der in [(cubic, 0, 2), (cubic, 1, 2), (cubic, 2, 2), (nonic, 3, 3)]:
        got = Z.funk_hecke_alpha_numeric(M, l, NumericProfile.polynomial(coeffs), u, n_der)
        for der in range(n_der + 1):
            want = 0.0
            for k, c in enumerate(coeffs):
                al = Z.funk_hecke_alpha_monomial(M, l, k)
                if al.is_zero:
                    continue
                fall = 1.0
                for p in range(der):
                    fall *= k / 2.0 - p
                want += float(c) * al.to_float() * fall * (u * u) ** (k / 2.0 - der)
            assert abs(got[der] - want) < 1e-10, (M, l, der)


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_alpha_numeric_bessel_kernel(M):
    """Transform of exp(it) at degree k is i^k (2pi)^{M/2} u^{1-M/2} J_{M/2+k-1}(u)."""
    u = 1.3
    for k in (0, 1, 2):
        got = Z.funk_hecke_alpha_numeric(M, k, NumericProfile.exp_i(1.0), u, 0)[0]
        want = 1j**k * (2 * math.pi) ** (M / 2) * u ** (1 - M / 2) * bessel_j(M / 2 + k - 1, u)
        assert abs(got - want) < 1e-8, (M, k)


def test_alpha_numeric_rejects():
    phi = NumericProfile.polynomial([1, 1])
    with pytest.raises(ValueError):
        Z.funk_hecke_alpha_numeric(1, 0, phi, 1.0, 0)
    capped = NumericProfile(lambda i, t: math.sin(t) if i == 0 else math.cos(t), 1)
    with pytest.raises(ValueError):
        Z.funk_hecke_alpha_numeric(3, 0, capped, 1.0, 2)
    # the route reads phi^{(l + 2 n_der)}: at l = 1 one derivative in v needs three of phi
    with pytest.raises(ValueError, match="kernel smoothness"):
        Z.funk_hecke_alpha_numeric(3, 1, capped, 1.0, 1)
    # |t|^(1/2) has a kink at 0 that the quadrature does not resolve: the last
    # iterate (8.377626 against 8 pi/3 = 8.377580) must not come back silently
    kinked = NumericProfile(lambda i, t: abs(t) ** 0.5, 0)
    with pytest.raises(Z.TruncationError):
        Z.funk_hecke_alpha_numeric(3, 0, kinked, 1.0, 0)


def test_jacobi_rule_integrates_even_moments():
    # sum_i w_i t_i^{2k} = Int t^{2k} (1-t^2)^a dt = Gamma(k+1/2) Gamma(a+1) / Gamma(a+k+3/2)
    for a in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        for nn in (64, 128, 256, 512, 1024):
            nodes, weights = Z._jacobi_rule(nn, a)
            for k in (0, 1, 5, 20, 50):
                want = math.gamma(k + 0.5) * math.gamma(a + 1) / math.gamma(a + k + 1.5)
                got = math.fsum(w * t ** (2 * k) for t, w in zip(nodes, weights))
                assert abs(got - want) <= 1e-11 * want, (a, nn, k)
        # a small rule is exact for t^{2k} up to the degree its docstring
        # claims, 2 nn - 1 - 2a (integer a) or 2 nn - 2 - 2a (half-integer a)
        nn = 8
        nodes, weights = Z._jacobi_rule(nn, a)
        for k in range(nn - math.ceil(a)):
            want = math.gamma(k + 0.5) * math.gamma(a + 1) / math.gamma(a + k + 1.5)
            got = math.fsum(w * t ** (2 * k) for t, w in zip(nodes, weights))
            assert abs(got - want) <= 1e-13 * want, (a, nn, k)


def test_apply_matches_polynomial_route():
    sig = Signature(5, 1)
    cubic = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(1)]
    sextic = cubic + [Fraction(-2), Fraction(1, 3), Fraction(2)]
    # near and at the origin, where no division by R_y^l may enter
    cases = [(cubic, 1.0, l) for l in (0, 1, 2)]
    cases += [(sextic, s, l) for s in (1.0, 1e-5, 1e-7, 0.0) for l in range(4)]
    for coeffs, s, l in cases:
        y = [s * c for c in (0.4, -0.7, 0.5, 0.2, 0.1)]
        H = harmonic_basis(sig, l).elements[0]
        applied = Z.funk_hecke_apply(sig, NumericProfile.polynomial(coeffs), H, l, y)
        val = Z.funk_hecke_poly(sig, coeffs, H, l).evaluate_bosonic([0.0] * 5 + y)
        shifted = Z._shift_gens(applied, 4 * sig.n, 2 * sig.n)
        assert shifted.max_abs_diff(val) < 1e-10, (s, l)


def test_apply_classical_quadrature_oracle():
    """Purely bosonic case against direct quadrature of the classical
    one-variable reduction."""
    sig = Signature(3, 0)
    phi = NumericProfile(lambda i, t: math.tanh(t) if i == 0 else 1 / math.cosh(t) ** 2, 1)
    y = [0.3, 0.2, -0.6]
    ry = math.sqrt(sum(c * c for c in y))
    got = Z.funk_hecke_apply(sig, phi, SuperPolynomial.constant(sig, 1), 0, y).coeff(0).real
    want = 2 * math.pi * scipy.integrate.quad(lambda t: math.tanh(ry * t), -1, 1)[0]
    assert abs(got - want) < 1e-6


def test_apply_requires_positive_codimension():
    sig = Signature(3, 1)  # M = 1
    phi = NumericProfile.polynomial([1])
    with pytest.raises(ValueError):
        Z.funk_hecke_apply(sig, phi, SuperPolynomial.constant(sig, 1), 0, [1.0, 0.0, 0.0])


# -- Hankel transform ---------------------------------------------------------


def test_hankel_gaussian_self_reciprocal():
    g = RadialProfile.exponential(Fraction(1, 2))
    for nu in (0.5, 1.0, 2.5):
        for s in (0.0, 0.3, 1.7):
            assert abs(Z.fourier_bessel(nu, g, s) - math.exp(-s / 2)) < 1e-10


def test_hankel_laguerre_eigenfunctions():
    nu = 1.5
    for j in range(4):
        psi = RadialProfile.laguerre_exp(j, Fraction(3, 2), Fraction(1, 2))
        for s in (0.0, 0.9, 2.2):
            got = Z.fourier_bessel(nu, psi, s)
            want = (-1) ** j * laguerre_row(j, nu, s)[j] * math.exp(-s / 2)
            assert abs(got - want) < 1e-8, (j, s)


def test_hankel_zero_argument_finite():
    g = RadialProfile.exponential(Fraction(1, 2))
    assert abs(Z.hankel(0.5, g, 0.0) - 1.0) < 1e-10


@functools.lru_cache(maxsize=None)
def _bessel_profile_mp(nu, t):
    """J_nu(t) / t^nu at 30 digits (its limit at t = 0)."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(nu)
        if t == 0:
            return float(mpmath.rgamma(nu + 1) / 2**nu)
        t = mpmath.mpf(t)
        return float(mpmath.besselj(nu, t) / t**nu)


def _hankel_quad(nu, psi, u, tol=1e-10):
    """The transform by quad_0_inf with a 30-digit Bessel factor, skipped
    where psi(r^2) == 0.0: J_nu(t)/t^nu is bounded for nu > -1/2."""

    def integrand(r):
        p = psi(r * r)
        if p == 0.0:
            return 0.0
        return p * _bessel_profile_mp(nu, r * u) * r ** (2 * nu + 1)

    return quad_0_inf(integrand, tol)


def _weber_mp(nu, b, a, u):
    """(nu+1)_b / (2^{nu+1} a^{nu+b+1}) e^{-z} M(-b, nu+1, z), z = u^2/(4a),
    with mpmath's 1F1 at 40 digits."""
    with mpmath.workdps(40):
        nu, b, a = (mpmath.mpf(q.numerator) / q.denominator for q in map(Fraction, (nu, b, a)))
        z = mpmath.mpf(u) ** 2 / (4 * a)
        pre = mpmath.gamma(nu + b + 1) / mpmath.gamma(nu + 1) / (2 ** (nu + 1) * a ** (nu + b + 1))
        return float(pre * mpmath.exp(-z) * mpmath.hyp1f1(-b, nu + 1, z))


def test_hankel_closed_form_matches_quadrature():
    # every nu, rate and u meets exp(a) and a Laguerre profile with j up to 9
    compared = refused = 0
    for i, nu in enumerate((0.0, 0.5, 1.0, 1.5, 2.5, 4.0)):
        for k, a in enumerate((Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))):
            j = (4 * i + 3 * k) % 10
            q = Fraction((i + k) % 4, 2)
            for psi in (RadialProfile.exponential(a), RadialProfile.laguerre_exp(j, q, a)):
                for u in (0.0, 0.5, 1.0, 2.0, 4.0):
                    closed = Z.hankel(nu, psi, u)
                    try:
                        quad = _hankel_quad(nu, psi, u)
                    except Z.NonIntegrableError:
                        refused += 1
                        assert math.isfinite(closed)
                        continue
                    compared += 1
                    assert abs(closed - quad) <= 1e-9 * max(1.0, abs(quad)), (nu, a, j, q, u)
    assert compared >= 220 and compared + refused == 240
    # past z = u^2/(4a) = 700, e^{-z} leaves the float range: u^150 e^{-u/4} at
    # z = 1000 is 4.40320624490259e94 (the closed form at 40 digits in mpmath),
    # and far out the transform underflows to 0.0 where u^2 overflows a float
    psi = RadialProfile.power(150) * RadialProfile.exponential(Fraction(1, 4))
    assert abs(Z.hankel(0.5, psi, math.sqrt(1000)) / 4.40320624490259e94 - 1) < 1e-9
    assert Z.hankel(1.5, RadialProfile.laguerre_exp(3, 1, Fraction(1, 4)), 1e200) == 0.0


def test_hankel_non_integer_power_matches_hyp1f1():
    # u^b e^{-au} at every rational b > -nu-1: the alternating head in
    # Fractions, the one-signed tail in floats
    quad_compared = 0
    for nu in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)):
        for b in (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2)):
            for a in (Fraction(1), Fraction(2), Fraction(1, 4)):
                psi = RadialProfile.power(b) * RadialProfile.exponential(a) * 3
                for u in (0.5, 2.0, 4.0, 8.0):
                    want = 3 * _weber_mp(nu, b, a, u)
                    got = Z.hankel(nu, psi, u)
                    assert abs(got - want) <= 1e-13 * abs(want), (nu, b, a, u)
                    try:
                        quad = _hankel_quad(float(nu), psi, u)
                    except Z.NonIntegrableError:
                        continue
                    quad_compared += 1
                    assert abs(got - quad) <= 1e-9 * max(1.0, abs(quad)), (nu, b, a, u)
    assert quad_compared >= 220
    # a negative integer power has an infinite series too
    psi = RadialProfile.power(-1) * RadialProfile.exponential(1)
    assert abs(Z.hankel(1.5, psi, 3.0) / _weber_mp(1.5, -1, 1, 3.0) - 1) <= 1e-13
    # z = 625, inside the float range of the series
    psi = RadialProfile.power(Fraction(1, 2)) * RadialProfile.exponential(1)
    assert abs(Z.hankel(0.5, psi, 50.0) / _weber_mp(0.5, Fraction(1, 2), 1, 50.0) - 1) <= 1e-13


def test_hankel_refuses_log_factors_and_far_non_integer_powers():
    e = RadialProfile.exponential(1)
    for psi, u in ((RadialProfile.power_log(1) * e, 1.0),
                   (RadialProfile.power_log(0) * e + e, 0.5),
                   (RadialProfile.power(Fraction(1, 2)) * e, 53.0),   # z = 702.25
                   (RadialProfile.power(-1) * e, 1e200)):
        with pytest.raises(Z.NonIntegrableError):
            Z.hankel(0.5, psi, u)
    # r^{2b} r^{2nu+1} is not integrable at 0 for b <= -nu-1
    with pytest.raises(Z.NonIntegrableError):
        Z.hankel(0.5, RadialProfile.power(Fraction(-3, 2)) * e, 1.0)


def test_hankel_divergence_gating():
    with pytest.raises(Z.NonIntegrableError):
        Z.hankel(0.5, RadialProfile.power(Fraction(1)), 1.0)
    # e^{-u} e^{2u} = e^u grows: labelled Gaussian, it used to raise OverflowError
    with pytest.raises(Z.NonIntegrableError):
        Z.hankel(0.5, RadialProfile.exponential(1) * RadialProfile.exponential(-2), 1.0)
    # Weber's integral converges for -1 < nu <= -1/2 too: e^{-u/2} maps to e^{-s/2}
    assert Z.hankel(-0.7, RadialProfile.exponential(Fraction(1, 2)), 1.0) == pytest.approx(
        math.exp(-0.5), rel=1e-14)
    with pytest.raises(ValueError, match="order must exceed -1"):
        Z.hankel(-1.0, RadialProfile.exponential(Fraction(1, 2)), 1.0)
    # decay is read off the terms: a zero profile, symbolic or scaled, transforms to 0
    assert Z.hankel(0.5, RadialProfile.polynomial([0]), 1.0) == 0.0
    assert Z.hankel(0.5, RadialProfile.exponential(1) * 0, 1.0) == 0.0
    # a numeric profile carries no decay information
    numeric = NumericProfile(lambda j, u: (-1) ** j * math.exp(-u), 4)
    for flat in (RadialProfile.exponential(0), RadialProfile.exponential(-1),
                 RadialProfile.exponential(1) + RadialProfile.polynomial([1]), numeric):
        with pytest.raises(Z.NonIntegrableError):
            Z.hankel(0.5, flat, 1.0)


# -- oscillator eigenfunctions ------------------------------------------------


def test_oscillator_ground_state_profile():
    sig = Signature(3, 1)
    assert (Z.clifford_hermite(sig, 0, 0) - RadialProfile.exponential(Fraction(1, 2))).is_zero


def test_oscillator_hermite_reduction():
    """At signature (1,0) the eigenfunctions reduce to classical Hermite
    functions: psi_{j,0} = (-1)^j H_{2j} e^{-x^2/2}, psi_{j,1} = (-1)^j H_{2j+1}/2 e^{-x^2/2}."""
    herm = {2: lambda x: 4 * x * x - 2,
            3: lambda x: 8 * x**3 - 12 * x,
            4: lambda x: 16 * x**4 - 48 * x * x + 12,
            5: lambda x: 32 * x**5 - 160 * x**3 + 120 * x}
    sig = Signature(1, 0)
    one = SuperPolynomial.constant(sig, 1)
    xc = SuperPolynomial.coordinate(sig, 1)
    for x in (0.7, -1.2):
        for j, k in ((1, 0), (2, 0), (1, 1), (2, 1)):
            H = one if k == 0 else xc
            value = radial_expand(Z.clifford_hermite(sig, j, k), sig, abs(x)) * H.evaluate_bosonic([x])
            got = value.coeff(0).real
            deg = 2 * j + k
            want = (-1) ** j * herm[deg](x) * math.exp(-x * x / 2) / (2 if k else 1)
            assert abs(got - want) < 1e-12, (j, k, x)


@pytest.mark.parametrize("m,n", [(3, 1), (2, 1), (1, 0), (2, 2), (4, 1)])
def test_oscillator_eigen_identity_exact(m, n):
    """(R^2 - laplacian)/2 acts on each eigenfunction as 2j + k + M/2,
    verified at the level of exact radial profiles."""
    sig = Signature(m, n)
    for j in range(4):
        for k in range(4):
            assert Z.oscillator_residual(sig, j, k).is_zero, (j, k)


# -- Fourier transform of radial x harmonic -----------------------------------


def test_bochner_gaussian_fixed_point():
    sig = Signature(5, 1)
    y = [0.4, -0.2, 0.3, 0.1, -0.5]
    ry = math.sqrt(sum(c * c for c in y))
    g = RadialProfile.exponential(Fraction(1, 2))
    got = Z.bochner_transform(sig, SuperPolynomial.constant(sig, 1), 0, g, y)
    want = radial_expand(g, sig, ry)
    assert got.max_abs_diff(want) < 1e-10


def test_bochner_laguerre_eigenvalues():
    sig = Signature(5, 1)
    y = [0.4, -0.2, 0.3, 0.1, -0.5]
    ry = math.sqrt(sum(c * c for c in y))
    q = Fraction(sig.superdim - 2, 2)
    for j in (1, 2, 3):
        psi = RadialProfile.laguerre_exp(j, q, Fraction(1, 2))
        got = Z.bochner_transform(sig, SuperPolynomial.constant(sig, 1), 0, psi, y)
        want = radial_expand(psi, sig, ry) * float((-1) ** j)
        assert got.max_abs_diff(want) < 1e-8, j


@pytest.mark.parametrize("sign", [1, -1])
def test_bochner_matches_nested_quadrature(sign):
    """Independent route: radial quadrature over the sphere transform of the
    oscillating kernel at each radius."""
    sig = Signature(5, 1)
    y = [0.4, -0.2, 0.3, 0.1, -0.5]
    H1 = harmonic_basis(sig, 1).elements[0]
    g = RadialProfile.exponential(Fraction(1, 2))
    got = Z.bochner_transform(sig, H1, 1, g, y, sign=sign)
    oracle = _bochner_oracle(sig, H1, 1, g, y, sign=sign)
    assert got.max_abs_diff(oracle) < 1e-8


def _bochner_oracle(sig, H_k, k, psi, ycoords, sign):
    """Superpolar decomposition of the Fourier integral: 240-point
    Gauss-Legendre over the radius in [0, 10] of the sphere transform of the
    exp(ivt) kernel at each radius (the nested two-quadrature chain)."""
    M = sig.superdim
    rmax = 10.0
    xs, ws = scipy.special.roots_legendre(240)
    acc = NumericGrassmann(2 * sig.n)
    for t, w in zip(xs.tolist(), ws.tolist()):
        r = rmax * (t + 1) / 2
        inner = Z.funk_hecke_apply(sig, NumericProfile.exp_i(sign * r), H_k, k, ycoords)
        acc = acc + inner * (w * (rmax / 2) * psi(r * r) * r ** (M + k - 1))
    return acc * (2 * math.pi) ** (-M / 2.0)


def test_bochner_rejects():
    g = RadialProfile.exponential(Fraction(1, 2))
    with pytest.raises(ValueError):
        Z.bochner_transform(Signature(3, 1), SuperPolynomial.constant(Signature(3, 1), 1),
                            0, g, [1.0, 0.0, 0.0])
    sig = Signature(5, 1)
    with pytest.raises(Z.NonIntegrableError):
        Z.bochner_transform(sig, SuperPolynomial.constant(sig, 1), 0,
                            RadialProfile.power(Fraction(2)), [1.0, 0, 0, 0, 0])


# -- Bessel-kernel expansion of the Fourier kernel ----------------------------


def test_kernel_expansion_zero_point():
    sig = Signature(3, 1)
    assert Z.mehler_bessel_check(sig, [0.0] * 3, [0.0] * 3, K=10) < 1e-12


def test_kernel_expansion_random_points():
    sig = Signature(3, 1)
    rng = random.Random(5)
    for _ in range(4):
        x = [rng.uniform(-1, 1) for _ in range(3)]
        y = [rng.uniform(-1, 1) for _ in range(3)]
        for sign in (1, -1):
            assert Z.mehler_bessel_check(sig, x, y, K=40, sign=sign) < 1e-8


def test_kernel_expansion_degenerate_rejected():
    with pytest.raises(UnsupportedSignatureError):
        Z.mehler_bessel_check(Signature(2, 1), [0.1, 0.2], [0.3, 0.4], K=10)
    # M = 2 is not degenerate: the limit rule applies by default
    x, y = [0.1, 0.2, -0.3, 0.4], [0.3, 0.4, 0.2, -0.1]
    assert Z.mehler_bessel_check(Signature(4, 1), x, y, K=40) < 1e-8


def test_kernel_expansion_truncation_error():
    sig = Signature(3, 1)
    with pytest.raises(Z.TruncationError):
        Z.mehler_bessel_check(sig, [3.0, 0, 0], [3.0, 0, 0], K=3)
    # the message names the term that blocked, not the last one: at the
    # points of `mehler --m 1 --n 1 --kmax 5` the k = 5 term is 6.1e-20, but
    # k = 3 still reads 2.94e-01
    rnd = random.Random(7)
    x, y = [rnd.uniform(-0.8, 0.8)], [rnd.uniform(-0.8, 0.8)]
    with pytest.raises(Z.TruncationError, match=r"still 2\.94e-01 after 6 terms"):
        Z.mehler_bessel_check(Signature(1, 1), x, y, K=5, m2_limit=True)


def test_hille_hardy_samples():
    assert Z.hille_hardy_check(3, 0, 0.0, 0.0, J=60) < 1e-12
    assert Z.hille_hardy_check(3, 0, 1.0, 1.0, J=60) < 1e-8
    assert Z.hille_hardy_check(1, 2, 4.0, 0.25, J=80) < 1e-6
    assert Z.hille_hardy_check(3, 1, 2.0, 3.0, J=60) < 1e-8
    assert Z.hille_hardy_check(5, 0, 0.3, 0.7, J=60) < 1e-8


def test_mehler_two_representations_agree():
    """The Bessel-profile form of the kernel and the Gaussian-weighted double
    Laguerre series agree term by term in k."""
    sig = Signature(3, 1)
    x = [0.3, -0.5, 0.4]
    y = [0.6, 0.1, -0.2]
    assert Z.mehler_expansions_agree(sig, x, y, K=10, J=60) < 1e-8
    assert Z.mehler_expansions_agree(sig, x, y, K=10, J=60, sign=-1) < 1e-8


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (1, 2)])
@pytest.mark.parametrize("sign", [1, -1])
def test_mehler_two_representations_agree_negative_superdimension(m, n, sign):
    """At M < 0 the Laguerre weight 2 j!/Gamma(j+nu+1) keeps the sign of
    Gamma, which is negative on (-1, 0), (-3, -2), ..."""
    sig = Signature(m, n)
    rnd = random.Random(1)
    x = [rnd.uniform(-0.8, 0.8) for _ in range(m)]
    y = [rnd.uniform(-0.8, 0.8) for _ in range(m)]
    assert Z.mehler_expansions_agree(sig, x, y, K=10, J=60, sign=sign) < 1e-9


def _euler_sum_grassmann(parts):
    """``Z.euler_alternating_sum`` blade by blade on NumericGrassmann parts."""
    n = len(parts) - 1
    acc = total = NumericGrassmann(parts[0].ngen)
    for i, c in enumerate(parts):
        acc = acc + c * (-1.0) ** i
        total = total + acc * (math.comb(n, i) * 2.0**-n)
    return total


def _mehler_by_grassmann_products(sig, x, y, K, J, sign):
    """``Z.mehler_expansions_agree`` with its Laguerre side built from three
    Grassmann products per (k, j): the expansions of L_j^{(nu)}(Rx^2),
    L_j^{(nu)}(Ry^2) and exp(-(Rx^2 + Ry^2)/2), Euler-summed blade by blade."""
    n, total = sig.n, 4 * sig.n
    rx, ry = math.sqrt(sum(c * c for c in x)), math.sqrt(sum(c * c for c in y))
    half = RadialProfile.exponential(Fraction(1, 2))
    gauss = Z._shift_gens(radial_expand(half, sig, rx), total, 0) * Z._shift_gens(
        radial_expand(half, sig, ry), total, 2 * n)

    def lag(j, nu, r, offset):  # d^i L_j^{(nu)} = (-1)^i L_{j-i}^{(nu+i)}
        values = [(-1) ** i * laguerre_row(j - i, nu + i, r * r)[-1] if i <= j else 0.0
                  for i in range(n + 1)]
        return Z._shift_gens(fermionic_expansion(values, n), total, offset)

    kern, w = Z._kernel_values(sig, K, list(x) + list(y), m2_limit=True)
    side_a = side_b = NumericGrassmann(total)
    for k in range(K + 1):
        nu = sig.superdim / 2.0 + k - 1.0
        phase = (sign * 1j) ** k
        side_a = side_a + kern[k] * Z._bessel_factor(sig, k, w) * phase
        parts = [lag(j, nu, rx, 0) * lag(j, nu, ry, 2 * n) * gauss * Z._laguerre_weight(j, nu)
                 for j in range(J)]
        side_b = side_b + kern[k] * _euler_sum_grassmann(parts) * phase
    return side_a.max_abs_diff(side_b)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 1), (5, 1), (1, 1), (3, 2), (5, 2), (1, 2)])
@pytest.mark.parametrize("sign", [1, -1])
def test_mehler_scalar_series_matches_grassmann_products(m, n, sign):
    """The scalar derivative series gives the residual of the Grassmann-product
    route.  Both residuals are float rounding of the alternating series (a
    50-digit T leaves 3.7e-15 on R^{1|4}, where both read 2.1e-11), so they
    may differ by a fraction of the residual itself: 7.6e-13 there."""
    sig = Signature(m, n)
    rnd = random.Random(1)
    x = [rnd.uniform(-0.8, 0.8) for _ in range(m)]
    y = [rnd.uniform(-0.8, 0.8) for _ in range(m)]
    want = _mehler_by_grassmann_products(sig, x, y, 10, 60, sign)
    assert abs(Z.mehler_expansions_agree(sig, x, y, K=10, J=60, sign=sign) - want) <= 1e-13 + 0.1 * want


@pytest.mark.parametrize("M,k,u1,u2,J", [
    (3, 0, 0.0, 0.0, 60), (3, 0, 1.0, 1.0, 60), (1, 2, 4.0, 0.25, 80), (3, 1, 2.0, 3.0, 60),
    (5, 0, 0.3, 0.7, 60), (-1, 0, 0.3, 0.7, 60), (-2, 1, 1.0, 2.0, 60), (-3, 1, 1.0, 2.0, 60),
])
def test_hille_hardy_matches_inline_series(M, k, u1, u2, J):
    nu = M / 2.0 + k - 1.0
    l1, l2, e = laguerre_row(J, nu, u1), laguerre_row(J, nu, u2), math.exp(-(u1 + u2) / 2.0)
    series = Z.euler_alternating_sum([Z._laguerre_weight(j, nu) * l1[j] * l2[j] * e for j in range(J)])
    want = abs(bessel_profile(nu, u1 * u2) - series)
    assert abs(Z.hille_hardy_check(M, k, u1, u2, J) - want) <= 1e-15


@pytest.mark.parametrize("M", [-1, -2, -3, -4])
@pytest.mark.parametrize("k", [0, 1])
def test_hille_hardy_negative_superdimension(M, k):
    # half-integer nu < 0 needs the sign of Gamma; integer nu < 0 meets its
    # poles, where 1/Gamma is 0
    assert Z.hille_hardy_check(M, k, 0.3, 0.7, J=60) < 1e-12
    assert Z.hille_hardy_check(M, k, 1.0, 2.0, J=60) < 1e-12


def test_euler_alternating_sum():
    parts = [1.0 / (j + 1) for j in range(35)]
    assert abs(Z.euler_alternating_sum(parts) - math.log(2)) < 1e-12
    with pytest.raises(ValueError):
        Z.euler_alternating_sum([])
