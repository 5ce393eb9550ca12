"""Integration functionals: sphere (Pizzetti), ball, full space, reduction branches.

The sphere integral of a polynomial is the finite Pizzetti sum

    T(f) = sum_k  2 pi^{M/2} / (2^{2k} k! Gamma(k + M/2)) * (lap^k f)(0),

exact in the pi-power field, and valid verbatim at negative and zero M (the
gamma reciprocals vanish at the poles).  Ball integration of a homogeneous
piece of degree d divides by M + d; the full-space integral of a polynomial
times exp(-a R^2) factorizes into 1D Gaussian moments times a Berezin top
extraction, with sqrt(a) entering iff m is odd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .scalar import ExactScalar, RatLike, gamma_exact, recip_gamma, sphere_area
from .superpoly import (
    Signature,
    SuperPolynomial,
    laplacian,
    mul_coordinate,
    nabla_lower,
)


class DegenerateDegreeError(ValueError):
    """Ball integral of a homogeneous piece with M + d = 0."""


class NonIntegrableError(ValueError):
    """Integrand not in any supported integrable class."""


# -- Pizzetti sphere integral -------------------------------------------------


def pizzetti_weight(M: int, k: int) -> ExactScalar:
    """2 pi^{M/2} / (2^{2k} k! Gamma(k + M/2)), exact; zero at gamma poles."""
    q = Fraction(2, 4**k * math.factorial(k))
    return ExactScalar.pi_pow(M, q) * recip_gamma(Fraction(M, 2) + k)


def _at_copy_zero(f: SuperPolynomial, copy: int) -> SuperPolynomial:
    """Set the chosen copy's variables to zero."""
    m, n = f.sig.m, f.sig.n
    lo, hi = copy * m, (copy + 1) * m
    cmask = ((1 << (2 * n)) - 1) << (copy * 2 * n)
    keep = {
        key: c
        for key, c in f.terms.items()
        if not any(key[0][lo:hi]) and not (key[1] & cmask)
    }
    return SuperPolynomial(f.sig, keep, f.copies)


def pizzetti(f: SuperPolynomial, copy: int = 0):
    """Sphere integral over the chosen copy's supersphere.

    One-copy polynomials give an ExactScalar; on the doubled algebra the result
    is a polynomial in the remaining copy's variables.
    """
    M = f.sig.superdim
    g = f
    k = 0
    acc = SuperPolynomial.zero(f.sig, f.copies)
    while not g.is_zero:
        w = pizzetti_weight(M, k)
        acc = acc + _at_copy_zero(g, copy) * w
        g = laplacian(g, copy)
        k += 1
    if f.copies == 1:
        return acc.constant_term()
    return acc


# -- superball ----------------------------------------------------------------


def superball_poly(f: SuperPolynomial) -> ExactScalar:
    """Ball integral of a polynomial via homogeneity: piece of degree d gets
    T(f_d)/(M+d).

    Odd-degree pieces vanish outright (central symmetry of the ball), so only
    even degrees can hit the M + d = 0 wall, which raises.
    """
    M = f.sig.superdim
    out = ExactScalar()
    for d, part in f.homogeneous_components().items():
        if d % 2 == 1:
            continue
        if M + d == 0:
            raise DegenerateDegreeError(
                f"ball integral of degree {d} piece undefined at M = {M}"
            )
        out = out + pizzetti(part) / Fraction(M + d)
    return out


def greens_check(f: SuperPolynomial) -> Tuple[List[ExactScalar], List[ExactScalar]]:
    """Componentwise (ball integral of grad f, sphere integral of x f).

    The two vectors must agree: the coordinate supervector is the outer normal
    of the supersphere.
    """
    tv = f.sig.total_vars
    lhs = [superball_poly(nabla_lower(f, k)) for k in range(1, tv + 1)]
    rhs = [pizzetti(mul_coordinate(f, k)) for k in range(1, tv + 1)]
    return lhs, rhs


# -- full superspace: polynomial x Gaussian -----------------------------------


class RadicalScalar:
    """rat + rad * sqrt(radicand), with exact pi-power parts.

    The value of a Gaussian-polynomial integral: sqrt(a) appears exactly when
    the bosonic dimension is odd, and never mixes with the rational part.
    """

    __slots__ = ("rat", "rad", "radicand")

    def __init__(self, rat: ExactScalar, rad: ExactScalar, radicand: Fraction):
        root = _rational_sqrt(Fraction(radicand))
        if root is not None and not rad.is_zero:
            rat, rad = rat + rad * root, ExactScalar()
        self.rat, self.rad, self.radicand = rat, rad, radicand

    def to_float(self) -> float:
        return self.rat.to_float() + self.rad.to_float() * math.sqrt(self.radicand)

    def __eq__(self, other):
        if isinstance(other, RadicalScalar):
            if self.rad.is_zero and other.rad.is_zero:
                return self.rat == other.rat
            return (self.rat, self.rad, self.radicand) == (other.rat, other.rad, other.radicand)
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.rad.is_zero and self.rat == ExactScalar.coerce(other)
        return NotImplemented

    def __repr__(self):
        if self.rad.is_zero:
            return f"RadicalScalar({self.rat.to_text()!r})"
        return f"RadicalScalar({self.rat.to_text()!r} + ({self.rad.to_text()})*sqrt({self.radicand}))"


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) when it is rational (q >= 0), else None."""
    sn, sd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None


def _gauss_moment(e: int, a: Fraction) -> Tuple[Fraction, Fraction] | None:
    """integral x^e exp(-a x^2) dx over R as (coeff of pi^{1/2}, power of a), or None if odd e.

    Gamma(s + 1/2) = (2s)!/(4^s s!) sqrt(pi), so the value is
    (2s)!/(4^s s!) * sqrt(pi) * a^{-s-1/2} with s = e/2.
    """
    if e % 2 == 1:
        return None
    s = e // 2
    q = Fraction(math.factorial(2 * s), 4**s * math.factorial(s))
    return q, Fraction(-2 * s - 1, 2)


def integrate_superspace(f: SuperPolynomial, gaussian_a: RatLike | None = None) -> RadicalScalar:
    """Full-space integral of f * exp(-gaussian_a * R^2), exact.

    exp(-a R^2) expands as exp(-a r^2) * sum_j (a nsq)^j / j!; the Berezin
    integral keeps the top Grassmann coefficient and the bosonic factors reduce
    to 1D Gaussian moments.  A bare polynomial (no Gaussian) is not integrable.
    """
    if f.copies != 1:
        raise ValueError("integrate_superspace works on single-copy polynomials")
    if gaussian_a is None:
        raise NonIntegrableError("polynomial without Gaussian weight is not integrable")
    a = Fraction(gaussian_a)
    if a <= 0:
        raise NonIntegrableError("Gaussian weight needs a > 0")
    m, n = f.sig.m, f.sig.n
    top = (1 << (2 * n)) - 1
    # fermionic factor: sum_j a^j nsq^j / j!; multiply into f and keep top blades
    from .superpoly import fermi_norm_poly

    expanded = SuperPolynomial.zero(f.sig)
    nsq = fermi_norm_poly(f.sig)
    power = SuperPolynomial.constant(f.sig, 1)
    for j in range(n + 1):
        expanded = expanded + f * power * Fraction(a**j, math.factorial(j))
        power = power * nsq
    # every surviving term carries pi^{m/2} from the m moment factors and
    # pi^{-n} from Berezin; a-powers collect separately per term
    parts: Dict[Fraction, ExactScalar] = {}
    for (bos, mask), c in expanded.terms.items():
        if mask != top:
            continue
        q = Fraction(1)
        apow = Fraction(0)
        ok = True
        for e in bos:
            mom = _gauss_moment(e, a)
            if mom is None:
                ok = False
                break
            q *= mom[0]
            apow += mom[1]
        if not ok:
            continue
        parts[apow] = parts.get(apow, ExactScalar()) + c * q
    rat = ExactScalar()
    rad = ExactScalar()
    pref = ExactScalar.pi_pow(m - 2 * n)
    for apow, c in parts.items():
        ipart = math.floor(apow)
        term = c * pref * (a**ipart)
        if apow == ipart:
            rat = rat + term
        else:  # half-integer exponent: one factor sqrt(a) left over
            rad = rad + term
    return RadicalScalar(rat, rad, a)


# -- 1D quadrature ------------------------------------------------------------


def quad_0_inf(fn: Callable[[float], float], tol: float = 1e-12) -> float:
    """Integral of fn over (0, inf) by tanh-sinh quadrature (mpmath, 15 digits).

    mpmath's error estimate is absolute and capped at 1.0, the value a
    divergent integral comes back with.  When the first pass gives |value| > 1,
    a second pass integrates fn / |value|, so that the estimate is relative.
    Raises NonIntegrableError when the integrand overflows, the value is not
    finite, or the estimate of the last pass exceeds
    max(50 tol, 1e-8 min(1, |value|)) in its units.
    """
    import mpmath

    def tanh_sinh(scale: float) -> Tuple[float, float]:
        try:
            with mpmath.workdps(15):
                val, err = mpmath.quad(lambda t: fn(float(t)) / scale, [0, mpmath.inf], error=True)
        except OverflowError as exc:
            raise NonIntegrableError(f"integrand overflows on (0, inf): {exc}") from exc
        return float(val), float(err)

    scale = 1.0
    val, err = tanh_sinh(scale)
    if math.isfinite(val) and abs(val) > 1.0:
        scale = abs(val)
        val, err = tanh_sinh(scale)
    if not math.isfinite(val) or err > max(50 * tol, 1e-8 * min(1.0, abs(val))):
        raise NonIntegrableError(
            f"integral over (0, inf) did not converge (value {val * scale:.3g}, "
            f"error estimate {err * scale:.1g})"
        )
    return val * scale


# -- dimensional continuation (radial split of the full-space integral) -------


def dimensional_continuation_check(
    g: SuperPolynomial,
    h: Callable[[float], float],
    gaussian_a: RatLike | None = None,
    lhs: float | None = None,
    tol: float = 1e-12,
) -> Tuple[float, float]:
    """Full-space integral of h(R^2) g two ways: direct vs radial shells.

    rhs = sum_d T(g_d) * integral_0^inf v^{M-1+d} h(v^2) dv; lhs is the exact
    Gaussian path when h = exp(-a u) (pass gaussian_a), or a caller-provided
    value.  Only defined for M > 0.
    """
    M = g.sig.superdim
    if M <= 0:
        raise ValueError("radial shell decomposition needs M > 0")
    if lhs is None:
        if gaussian_a is None:
            raise ValueError("need either gaussian_a or an explicit lhs")
        lhs = integrate_superspace(g, gaussian_a).to_float()
    rhs = 0.0
    for d, part in g.homogeneous_components().items():
        w = pizzetti(part).to_float()
        if w == 0.0:
            continue
        rhs += w * quad_0_inf(lambda v, _d=d: v ** (M - 1 + _d) * h(v * v), tol)
    return lhs, rhs


# -- reduction of a purely radial full-space integral -------------------------


def reduce_integral(profile, sig: Signature, tol: float = 1e-12):
    """Full-space integral of h(R^2) by super-dimension branch, with
    I_M[h] = integral_0^inf v^{M-1} h(v^2) dv:

    M > 0:        sigma_M I_M[h]
    M in -2N:     (-pi)^{M/2} h^{(-M/2)}(0)                   (exact-leaning)
    M odd, < 0:   2 (-pi)^{(M-1)/2} I_1[h^{((1-M)/2)}]

    For a RadialProfile, divergence is decided from the exponents of its terms
    c u^b log(u)^d e^{-au}: a term with a <= 0, or without log factor b <= -M/2,
    raises NonIntegrableError, even where another term would cancel its
    divergence.  Without log factors, I_M is the sum of Gamma moments
    (DLMF 5.2.1)

        integral_0^inf v^{M-1} v^{2b} e^{-a v^2} dv = Gamma(b+M/2) / (2 a^{b+M/2}),

    an ExactScalar when b + M/2 is a half-integer and a^{b+M/2} rational for
    every term, a float otherwise.  Profiles with log factors and evaluators
    go through quad_0_inf.

    ``profile`` duck-types the radial-profile interface: callable on floats,
    .derivative() -> profile, .value_exact_at_zero() -> ExactScalar or None.
    """
    M = sig.superdim
    if M <= 0 and M % 2 == 0:
        j = -M // 2
        d = profile
        for _ in range(j):
            d = d.derivative()
        val0 = d.value_exact_at_zero()
        sign = Fraction((-1) ** j)
        if val0 is not None:
            return ExactScalar.pi_pow(M, sign) * val0
        return float(sign) * math.pi ** (M / 2) * d(0.0)
    if M > 0:
        pre, moment = sphere_area(M), _radial_moment(profile, M, tol)
    else:
        j = (1 - M) // 2
        d = profile
        for _ in range(j):
            d = d.derivative()
        pre, moment = ExactScalar.pi_pow(M - 1, 2 * (-1) ** j), _radial_moment(d, 1, tol)
    return pre * moment if isinstance(moment, ExactScalar) else pre.to_float() * moment


def _radial_moment(h, M: int, tol: float):
    """I_M[h] = integral_0^inf v^{M-1} h(v^2) dv, M > 0: summed Gamma moments
    for a log-free RadialProfile, quad_0_inf otherwise."""
    from .radial import RadialProfile  # here: pizzetti's callers need no radial

    symbolic = isinstance(h, RadialProfile)
    if symbolic and not all(a > 0 for _, _, a in h.terms):
        raise NonIntegrableError("profile is not exponentially decaying in every term")
    if not symbolic or any(d for _, d, _ in h.terms):
        return quad_0_inf(lambda v: v ** (M - 1) * h(v * v), tol)
    exact, approx = ExactScalar(), None
    for (b, _, a), c in h.terms.items():
        s = b + Fraction(M, 2)
        if s <= 0:
            raise NonIntegrableError(
                f"u^{b} diverges at the origin against v^{M - 1} (needs b > {Fraction(-M, 2)})"
            )
        if s.denominator > 2:
            term = c.to_float() * math.gamma(s) * float(a) ** -float(s) / 2
        else:
            whole = math.floor(s)
            term = gamma_exact(s) * c * (a**-whole / 2)
            if s != whole:
                root = _rational_sqrt(a)
                term = term / root if root is not None else term.to_float() / math.sqrt(a)
        if isinstance(term, ExactScalar):
            exact = exact + term
        else:
            approx = term if approx is None else approx + term
    return exact if approx is None else exact.to_float() + approx
