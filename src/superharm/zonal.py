"""Two-point zonal functions, the sphere transform, Hankel/Bessel transforms,
oscillator eigenfunctions, and the Bessel-kernel expansion of the Fourier
kernel.

A zonal function of two super vector variables is phi(<x,y>), expanded through
the nilpotent part of the pairing as

    phi(<x,y>) = sum_{j=0}^{2n} (<x',y'>^j / j!) phi^{(j)}(<x_b,y_b>).

The kernel phi is a ``radial.NumericProfile``, the same numeric function type
as a radial profile, and the expansion is ``radial.compose_value``.  The
sphere transform sends phi to alpha_{M,l}[phi]; for polynomials alpha has an
exact closed form, for general kernels Rodrigues' formula moves the
Gegenbauer factor onto phi as l derivatives, and alpha / u^l and its
derivatives in u^2 are quadratures of phi^{(l+2j)} against the weights
(1-t^2)^{(M-3)/2+l+j} (M > 1 only) on the Chebyshev points (Gauss-Chebyshev
for even M, Fejer's first rule for odd M, the weight folded into the
weights).  Complex-valued kernels (exp(ivt)) are carried as complex numbers
at the scalar level; all exact fields stay real.

The Hankel transform of a profile c u^b e^{-au} is closed form (Weber's
integral and a Kummer series, ``hankel``), and the Bessel factor of the
kernel expansion is the power series ``scalar.bessel_profile``: no routine
here integrates numerically over the half line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .grassmann import NumericGrassmann
from .harmonics import UnsupportedSignatureError, kernel_values
from .integrate import NonIntegrableError
from .radial import (
    NumericProfile,
    RadialProfile,
    compose_value,
    fermionic_expansion,
)
from .scalar import (
    ExactScalar,
    bessel_profile,
    gamma_exact,
    laguerre_row,
    pochhammer,
    recip_gamma,
)
from .superpoly import Signature, SuperPolynomial, mul_r2, pairing, r_squared


class TruncationError(ValueError):
    """Series truncation exhausted before the tail estimate reached tolerance."""


# -- alternating-series summation ---------------------------------------------


def euler_alternating_sum(positive_parts: Sequence[float]) -> float:
    """Abel-limit evaluation of sum_j (-1)^j c_j as the Euler transform of
    its partial sums S_i: 2^{-(J-1)} sum_i C(J-1, i) S_i for J float parts,
    the value that J-1 rounds of averaging neighbouring partial sums reach;
    linear, deterministic, one pass."""
    if not positive_parts:
        raise ValueError("empty series")
    n = len(positive_parts) - 1
    scale = 2.0 ** -n
    acc = total = 0.0
    for i, c in enumerate(positive_parts):
        acc += -c if i % 2 else c
        total += acc * (math.comb(n, i) * scale)
    return total


# ``bench/workloads.py`` builds its kernels as ``zonal.ZonalProfile.polynomial``
ZonalProfile = NumericProfile


# -- sphere transform of monomials and polynomials (exact) --------------------


def funk_hecke_alpha_monomial(M: int, l: int, k: int) -> ExactScalar:
    """alpha_{M,l}[t^k]: exact sphere-transform coefficient of the monomial.

    (k!/(k-l)!) (2 pi^{(M-1)/2} / 2^l) Gamma((k-l+1)/2) / Gamma((M+k+l)/2),
    zero when k+l is odd or k < l (also when the last Gamma sits on a pole).
    """
    if (k + l) % 2 or k < l:
        return ExactScalar()
    pre = ExactScalar.pi_pow(
        M - 1, Fraction(2 * math.factorial(k), math.factorial(k - l) * 2**l)
    )
    return pre * gamma_exact(Fraction(k - l + 1, 2)) * recip_gamma(Fraction(M + k + l, 2))


def funk_hecke_poly(
    sig: Signature, coeffs: Sequence, H_l: SuperPolynomial, l: int
) -> SuperPolynomial:
    """Sphere transform of p(<x,y>) H_l(x) for polynomial p = sum_k c_k t^k.

    Returns the y-block polynomial sum_k c_k alpha_{M,l}[t^k] (R_y^2)^{(k-l)/2}
    H_l(y) on the doubled algebra.
    """
    M = sig.superdim
    Hy = H_l.to_y_copy()
    out = SuperPolynomial.zero(sig, 2)  # sum_q a_{l+2q} R_y^{2q} Hy by Horner
    for k in reversed(range(l, len(coeffs), 2)):
        alpha = funk_hecke_alpha_monomial(M, l, k) * ExactScalar.coerce(coeffs[k])
        out = mul_r2(out, copy=1) + Hy * alpha
    return out


# -- sphere transform of general kernels (quadrature) -------------------------

_QUAD_TOL = 1e-12  # two doublings of the rule this close (relative) end the search


@lru_cache(maxsize=64)
def _jacobi_rule(nn: int, a: float) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Nodes t_j and weights w_j with sum_j w_j g(t_j) ~ Int_{-1}^{1} g(t)
    (1-t^2)^a dt, for an integer or half-integer a >= -1/2 (a = mu + j in
    ``_beta_derivs``), on the Chebyshev points t_j = cos(theta_j),
    theta_j = (2j+1) pi / (2N), with the weight folded into w_j.

    Half-integer a: Gauss-Chebyshev on N = nn points, w_j = (pi/N)
    sin(theta_j)^(2a+1); exact for polynomials g of degree <= 2 nn - 2 - 2a.

    Integer a: Fejer's first rule on N = 2 nn points (Waldvogel, BIT 46 (2006)
    195), w_j = (2/N) (1 - 2 sum_{k=1}^{N/2} cos(2k theta_j) / (4k^2 - 1))
    sin(theta_j)^(2a); exact for polynomials g of degree <= 2 nn - 1 - 2a.
    The cosine sum runs by the Chebyshev recurrence over half the nodes and
    is mirrored onto the other half.
    """
    N = nn if a != int(a) else 2 * nn
    thetas = [(2 * j + 1) * math.pi / (2 * N) for j in range(N)]
    nodes = tuple(math.cos(th) for th in thetas)
    if a != int(a):
        return nodes, tuple(math.pi / N * math.sin(th) ** (2 * a + 1) for th in thetas)
    coeffs = [2.0 / (4 * k * k - 1) for k in range(1, nn + 1)]
    half = []
    for th in thetas[:nn]:
        x = math.cos(2 * th)
        x2 = 2 * x
        c_prev, c, s = 1.0, x, 0.0
        for d in coeffs:
            s += d * c
            c_prev, c = c, x2 * c - c_prev
        half.append(2 / N * (1 - s) * math.sin(th) ** (2 * a))
    return nodes, tuple(half + half[::-1])


def _beta_derivs(M: int, l: int, phi: NumericProfile, u: float, n: int) -> List[complex]:
    """beta^{(j)}(v) at v = u^2 for j <= n, where beta(v) = alpha_{M,l}[phi](sqrt v) / v^{l/2}.

    Rodrigues' formula (DLMF §18.5(ii)) and l integrations by parts give
    beta = 2 pi^{(M-1)/2} 2^{-l} A_mu[phi^{(l)}(sqrt(v) .)], mu = (M-3)/2 + l,
    with A_a[g] = Int_{-1}^{1} g(t) (1-t^2)^a dt / Gamma(a+1); one more
    integration by parts gives d/dv A_a[g(sqrt(v) .)] = A_{a+1}[g''(sqrt(v) .)] / 4,
    so beta^{(j)} = 2 pi^{(M-1)/2} 2^{-l} 4^{-j} A_{mu+j}[phi^{(l+2j)}(sqrt(v) .)],
    one ``_jacobi_rule`` quadrature each.  Nothing divides by u, so u = 0 is
    an ordinary point.  M > 1 only; phi must have l + 2n derivatives.

    Raises TruncationError when four doublings of the rule at nn = 64 leave
    the last two values further apart than ``_QUAD_TOL``."""
    if M <= 1:
        raise ValueError("sphere-transform quadrature needs M > 1")
    if l + 2 * n > phi.j_max:
        raise ValueError("kernel smoothness insufficient for requested derivatives")
    mu = (M - 3) / 2.0 + l
    c0 = 2 * math.pi ** ((M - 1) / 2) / 2**l
    pre = [c0 / (4**j * math.gamma(mu + j + 1)) for j in range(n + 1)]

    def eval_all(nn: int) -> List[complex]:
        out = []
        for j, c in enumerate(pre):
            s = 0.0
            for t, w in zip(*_jacobi_rule(nn, mu + j)):
                s = s + w * phi.eval_deriv(l + 2 * j, u * t)
            out.append(c * s)
        return out

    nn = 64
    prev = eval_all(nn)
    for _ in range(4):
        nn *= 2
        cur = eval_all(nn)
        if all(
            abs(cg - pg) <= _QUAD_TOL * max(1.0, abs(cg)) for cg, pg in zip(cur, prev)
        ):
            return cur
        prev = cur
    raise TruncationError(
        f"sphere-transform quadrature not converged to {_QUAD_TOL:g} at nn = {nn}"
    )


def funk_hecke_alpha_numeric(M: int, l: int, phi: NumericProfile, u: float, n_der: int) -> List[complex]:
    """alpha_{M,l}[phi] and its first ``n_der`` derivatives (with respect to
    the squared argument v = u^2) at radius u > 0, as the Leibniz product
    alpha = v^{l/2} beta of the ``_beta_derivs`` quadratures.  M > 1 only;
    phi must have l + 2 n_der derivatives; raises TruncationError where
    ``_beta_derivs`` does."""
    if u <= 0:
        raise ValueError("radius must be positive")
    v = u * u
    beta = _beta_derivs(M, l, phi, u, n_der)
    out = []
    for k in range(n_der + 1):
        tot = 0.0
        for i in range(k + 1):  # (v^{l/2})^{(k-i)} = (l/2)_falling(k-i) v^{l/2-(k-i)}
            fall = math.prod(l / 2.0 - p for p in range(k - i))
            tot = tot + math.comb(k, i) * fall * v ** (l / 2.0 - (k - i)) * beta[i]
        out.append(tot)
    return out


def funk_hecke_apply(
    sig: Signature, phi: NumericProfile, H_l: SuperPolynomial, l: int, ycoords: Sequence[float]
) -> NumericGrassmann:
    """Sphere integral of phi(<x,y>) H_l(x) as a Grassmann-valued function of
    the bosonic point y: alpha_{M,l}[phi](R_y) H_l(y) / R_y^l = beta(R_y^2)
    H_l(y), with beta and its first n derivatives from ``_beta_derivs`` in the
    fermionic expansion.  No division by R_y, so y = 0 is allowed.  M > 1
    only; phi must have l + 2n derivatives."""
    ry = math.sqrt(sum(c * c for c in ycoords))
    beta = _beta_derivs(sig.superdim, l, phi, ry, sig.n)
    return fermionic_expansion(beta, sig.n) * H_l.evaluate_bosonic(ycoords)


# -- Hankel / Fourier-Bessel transform ----------------------------------------


def hankel(nu, psi: RadialProfile, u: float) -> float:
    """Hankel-type transform of the squared-variable profile psi:
    Int_0^inf psi(r^2) (J_nu(ru)/(ru)^nu) r^{2nu+1} dr, in closed form.

    For a term c u^b e^{-au} with a > 0 and rational b > -nu-1, Weber's first
    exponential integral (DLMF §10.22(v)) followed by Kummer's transformation
    (DLMF 13.2.39) give

      (nu+1)_b / (2^{nu+1} a^{nu+b+1}) e^{-z} M(-b, nu+1, z),  z = u^2/(4a).

    The terms of M(-b, nu+1, z) (DLMF 13.2.2) alternate in sign up to index b
    and have one sign after it.  nu, u and a are exact dyadic or rational
    numbers, so the alternating head is summed in Fractions: no cancellation
    at large b z.  For integer b >= 0 the head is all of M, a Laguerre
    polynomial, and the terms with one rate are combined exactly; past
    z = 700, where e^{-z} leaves the float range, the exact sum meets e^{-z}
    in logarithms (relative error about z times the float epsilon).  For
    other b the one-signed tail is summed in floats until its terms
    fall below the float epsilon of the sum and halve at each step, and
    (nu+1)_b = Gamma(nu+b+1)/Gamma(nu+1) comes from lgamma.

    Raises ValueError unless nu > -1.  Raises NonIntegrableError unless psi
    is a RadialProfile with every term damped by exp(-a u), a > 0, and
    b > -nu-1; for a term with a log factor; and for other b past z = 700,
    where the float series overflows.
    """
    nu = float(nu)
    if nu <= -1:
        raise ValueError("order must exceed -1")
    if not (isinstance(psi, RadialProfile) and all(a > 0 for _, _, a in psi.terms)):
        raise NonIntegrableError("profile is not exponentially decaying in every term")
    nq = Fraction(nu)
    z_rate = Fraction(u) ** 2 / 4
    by_rate = {}
    total = 0.0
    for (b, d, a), c in psi.terms.items():
        if d or b <= -nq - 1:
            raise NonIntegrableError(
                f"no closed-form transform of the term u^{b} log(u)^{d} e^(-{a}u) at order {nu}"
            )
        z = z_rate / a
        head, t, i = Fraction(0), Fraction(1), 0
        while i <= b:
            head += t
            t = t * (i - b) * z / ((nq + 1 + i) * (i + 1))
            i += 1
        if b >= 0 and b.denominator == 1:
            part = c * (pochhammer(nq + 1, int(b)) * head / a ** int(b))
            by_rate[a] = by_rate[a] + part if a in by_rate else part
            continue
        if z > 700:
            raise NonIntegrableError(
                f"u^{b} e^(-{a}u) at u = {u:g}: z = u^2/(4a) > 700 leaves the float range"
            )
        zf, bf, series, t = float(z), float(b), float(head), float(t)
        while True:
            series += t
            t *= (i - bf) * zf / ((nu + 1 + i) * (i + 1))
            i += 1
            if i >= 2 * zf and abs(t) <= 2.0**-53 * abs(series):
                break
        poch = math.exp(math.lgamma(nu + bf + 1) - math.lgamma(nu + 1))
        total += c.to_float() * (series * math.exp(-zf)) * poch / (float(a) ** (nu + bf + 1) * 2 ** (nu + 1))
    for a, part in by_rate.items():
        z = z_rate / a
        if z < 700:
            total += (part * Fraction(math.exp(-z))).to_float() * float(2 * a) ** -(nu + 1)
            continue
        # e^{-z} leaves the float range: combine each magnitude with it in logs
        log_pre = -(float(z) if z < 10**300 else math.inf) - (nu + 1) * math.log(2 * a)
        for s, q in part.terms.items():
            log_q = math.log(abs(q.numerator)) - math.log(q.denominator) + s / 2 * math.log(math.pi)
            total += math.exp(log_q + log_pre) * (1.0 if q > 0 else -1.0)
    return total


def fourier_bessel(nu, psi: RadialProfile, u2: float) -> float:
    """The transform in the squared variable: value at u2 = u^2."""
    return hankel(nu, psi, math.sqrt(u2))


# -- oscillator eigenfunctions ------------------------------------------------


def clifford_hermite(sig: Signature, j: int, k: int) -> RadialProfile:
    """Profile 2^{2j} j! L_j^{M/2+k-1}(u) exp(-u/2) of the oscillator
    eigenfunction 2^{2j} j! L_j^{M/2+k-1}(R^2) H_k exp(-R^2/2), for any
    spherical harmonic H_k of degree k."""
    q = Fraction(sig.superdim - 2 + 2 * k, 2)
    return RadialProfile.laguerre_exp(j, q, Fraction(1, 2)) * Fraction(
        2 ** (2 * j) * math.factorial(j)
    )


def oscillator_residual(sig: Signature, j: int, k: int) -> RadialProfile:
    """Exact residual profile of (R^2 - lap)/2 psi_{j,k} = (2j+k+M/2) psi_{j,k};
    identically zero by the Laguerre differential equation: the sector
    residual of ``schrodinger.reduction_residual`` at V = u/2."""
    from .schrodinger import reduce, reduction_residual  # here: zonal's imports stay light

    h = clifford_hermite(sig, j, k)
    problem = reduce(sig, RadialProfile.polynomial([0, Fraction(1, 2)]), k)
    return reduction_residual(problem, h, Fraction(4 * j + 2 * k + sig.superdim, 2))


# -- Fourier transform of radial x harmonic functions -------------------------


def bochner_transform(
    sig: Signature,
    H_k: SuperPolynomial,
    k: int,
    psi: RadialProfile,
    ycoords: Sequence[float],
    sign: int = 1,
) -> NumericGrassmann:
    """Fourier transform of H_k(x) psi(R^2): (+-i)^k H_k(y) F_{k+M/2-1}[psi](R_y^2),
    assembled from the Hankel transform and the fermionic expansion of the
    transform profile; raises NonIntegrableError where hankel does."""
    M = sig.superdim
    if M <= 1:
        raise ValueError("transform reduction needs M > 1")
    n = sig.n
    nu = k + M / 2.0 - 1.0
    ry = math.sqrt(sum(c * c for c in ycoords))
    v = ry * ry
    values = [(-0.5) ** i * fourier_bessel(nu + i, psi, v) for i in range(n + 1)]
    expansion = fermionic_expansion(values, n)
    return expansion * H_k.evaluate_bosonic(ycoords) * (sign * 1j) ** k


# -- the Bessel expansion of the Fourier kernel -------------------------------


def _max_abs(v: NumericGrassmann) -> float:
    return max((abs(c) for c in v.terms.values()), default=0.0)


def _shift_gens(v: NumericGrassmann, total: int, offset: int) -> NumericGrassmann:
    return NumericGrassmann(total, {mask << offset: c for mask, c in v.terms.items()})


def _kernel_values(
    sig: Signature, K: int, coords: Sequence[float], m2_limit: bool
) -> Tuple[List[NumericGrassmann], NumericGrassmann]:
    """F_0 .. F_K evaluated over the doubled Grassmann algebra at the bosonic
    points, by ``harmonics.kernel_values`` in the pairing t and u = Rx^2 Ry^2
    (the exact ``reproducing_kernel``'s recurrence on numeric coefficients,
    building no polynomial of degree 2k), together with u."""
    M = sig.superdim
    if M == 2 and not m2_limit:
        raise UnsupportedSignatureError(
            "kernel prefactor singular at M=2; enable the limit rule"
        )
    t = pairing(sig).evaluate_bosonic(coords)
    u = r_squared(sig, 2, 0).evaluate_bosonic(coords) * r_squared(sig, 2, 1).evaluate_bosonic(coords)
    return kernel_values(M, K, t, u, NumericGrassmann.scalar(4 * sig.n, 1.0)), u


def _bessel_factor(sig: Signature, k: int, w: NumericGrassmann) -> NumericGrassmann:
    """W_{M/2+k-1}(w) over the doubled algebra, from W_nu^{(i)} = (-1/2)^i W_{nu+i}."""
    nu = sig.superdim / 2.0 + k - 1.0
    prof = NumericProfile(lambda i, s: (-0.5) ** i * bessel_profile(nu + i, s), math.inf)
    return compose_value(prof, w, 2 * sig.n)


def mehler_bessel_check(
    sig: Signature,
    xcoords: Sequence[float],
    ycoords: Sequence[float],
    K: int = 40,
    tol: float = 1e-8,
    sign: int = 1,
    m2_limit: bool = True,
) -> float:
    """Residual of the Bessel-kernel expansion of the Fourier kernel,

      (2pi)^{-M/2} exp(+-i<x,y>) = sum_k (+-i)^k F_k(x,y) W_{M/2+k-1}(Rx^2 Ry^2),

    both sides expanded over the doubled Grassmann algebra at the bosonic
    points.  Stops early once three successive term magnitudes fall below
    tol/10; raises TruncationError if K terms never get there, naming the
    largest of the last three."""
    coords = list(xcoords) + list(ycoords)
    pair_val = pairing(sig).evaluate_bosonic(coords)
    lhs = compose_value(NumericProfile.exp_i(sign), pair_val, 2 * sig.n)
    lhs = lhs * (2 * math.pi) ** (-sig.superdim / 2.0)

    kern, w = _kernel_values(sig, K, coords, m2_limit)
    rhs = NumericGrassmann(4 * sig.n)
    deltas: List[float] = []
    converged = False
    for k in range(K + 1):
        term = kern[k] * _bessel_factor(sig, k, w) * (sign * 1j) ** k
        rhs = rhs + term
        deltas.append(_max_abs(term))
        if len(deltas) >= 3 and all(d < tol / 10 for d in deltas[-3:]):
            converged = True
            break
    if not converged:
        raise TruncationError(
            f"kernel series tail still {max(deltas[-3:]):.2e} after {K + 1} terms"
        )
    return lhs.max_abs_diff(rhs)


def _laguerre_weight(j: int, nu: float) -> float:
    """2 j! / Gamma(j+nu+1) with the sign of Gamma, which is negative on
    (-1, 0), (-3, -2), ...; 0 at the poles of Gamma."""
    a = j + nu + 1
    if a <= 0 and a == math.floor(a):
        return 0.0
    w = 2.0 * math.exp(math.lgamma(j + 1) - math.lgamma(a))
    return -w if a < 0 and math.floor(a) % 2 else w


def _laguerre_series(nu: float, ux: float, uy: float, n: int, J: int) -> List[List[float]]:
    """T[i][i2] = sum_{j<J} (-1)^j 2 j!/Gamma(j+nu+1) h_j^{(i)}(ux) h_j^{(i2)}(uy)
    for i, i2 <= n, h_j(u) = L_j^{(nu)}(u) e^{-u/2}, each sum by
    ``euler_alternating_sum``.  Leibniz and d^t L_j^{(nu)} = (-1)^t
    L_{j-t}^{(nu+t)} (DLMF 18.9.14; zero once t > j) give h_j^{(i)}(u) =
    (-1)^i e^{-u/2} sum_{t<=i} C(i,t) 2^{t-i} L_{j-t}^{(nu+t)}(u)."""
    def derivs(u: float) -> List[List[float]]:  # [i][j] -> h_j^{(i)}(u)
        rows = [[0.0] * t + laguerre_row(J, nu + t, u) for t in range(n + 1)]
        e = math.exp(-u / 2.0)
        return [[(-1) ** i * e * sum(math.comb(i, t) * 2.0 ** (t - i) * rows[t][j] for t in range(i + 1))
                 for j in range(J)] for i in range(n + 1)]

    w = [_laguerre_weight(j, nu) for j in range(J)]
    hx, hy = derivs(ux), derivs(uy)
    return [[euler_alternating_sum([c * a * b for c, a, b in zip(w, ax, by)]) for by in hy] for ax in hx]


def hille_hardy_check(M: int, k: int, u1: float, u2: float, J: int = 60) -> float:
    """Residual of the scalar Laguerre expansion of the normalized Bessel
    profile (DLMF §18.18),

      W_nu(u1 u2) = sum_j 2 j! (-1)^j / Gamma(j+nu+1)
                     L_j^nu(u1) L_j^nu(u2) exp(-(u1+u2)/2),  nu = M/2+k-1,

    the alternating (Abel-summable) series being ``_laguerre_series`` at
    n = 0."""
    nu = M / 2.0 + k - 1.0
    return abs(bessel_profile(nu, u1 * u2) - _laguerre_series(nu, u1, u2, 0, J)[0][0])


def mehler_expansions_agree(
    sig: Signature,
    xcoords: Sequence[float],
    ycoords: Sequence[float],
    K: int = 20,
    J: int = 60,
    sign: int = 1,
) -> float:
    """Compare the two kernel representations truncated at the same k-order:
    the Bessel-profile form against the Gaussian-weighted double Laguerre
    series.  By dimensional reduction the latter is, blade by blade, the
    scalar series T = ``_laguerre_series`` of the derivatives at the bodies
    Rx^2, Ry^2: its order-k part is sum_i E_x(e_i) E_y(T[i]), E the
    ``fermionic_expansion`` on the x or the y generators."""
    n, total = sig.n, 4 * sig.n
    ux, uy = (sum(c * c for c in v) for v in (xcoords, ycoords))
    blades_x = [_shift_gens(fermionic_expansion([float(t == i) for t in range(n + 1)], n), total, 0)
                for i in range(n + 1)]
    kern, w = _kernel_values(sig, K, list(xcoords) + list(ycoords), m2_limit=True)
    side_a = side_b = NumericGrassmann(total)
    for k in range(K + 1):
        nu = sig.superdim / 2.0 + k - 1.0
        phase = (sign * 1j) ** k
        side_a = side_a + kern[k] * _bessel_factor(sig, k, w) * phase
        lag = NumericGrassmann(total)
        for bx, row in zip(blades_x, _laguerre_series(nu, ux, uy, n, J)):
            lag = lag + bx * _shift_gens(fermionic_expansion(row, n), total, 2 * n)
        side_b = side_b + kern[k] * lag * phase
    return side_a.max_abs_diff(side_b)
