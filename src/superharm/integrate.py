"""Integration functionals: sphere (Pizzetti), ball, Gaussian and radial profile.

All four are one theorem, the paper's dimensional reduction for integration:
an orthosymplectically invariant integral of f h(R^2) reads only the numbers
(lap^k f)(0),

    int f h(R^2) = sum_k (lap^k f)(0) / ((4 pi)^k k!) I_{M+2k}[h],
    I_D[h]       = pi^{D/2} Mellin[h](D/2),

with Mellin[h](s) = int_0^inf u^{s-1} h(u) du / Gamma(s) continued in s
(DLMF 1.14(iv); Gel'fand-Shilov, Generalized Functions I, ch. I 3), the
superspace case of Folland (Amer. Math. Monthly 108 (2001) 446) and of
Pizzetti's formula (De Bie-Sommen, J. Phys. A 40 (2007) 7193).  Four radial
factors D -> I_D[h] are used; ``_reduce`` sums the first three, and the
fourth is the k = 0 term alone (f = 1):

    sphere    sigma_D = 2 pi^{D/2} / Gamma(D/2)   h = 2 delta(u - 1)   pizzetti
    ball      sigma_D / D                         h = 1 on [0, 1]      superball_poly
    Gaussian  (pi/a)^{D/2}                        h = e^{-au}          integrate_superspace
    profile   I_M[h]                              any h                reduce_integral

The sum is exact in the pi-power field (the Gaussian's sqrt(a) at odd D kept
apart) and valid verbatim at every M: 1/Gamma vanishes at its poles, and the
ball refuses the one piece, of degree -M, whose D is 0.

(lap^k f)(0) has a closed form per monomial: a term c x^alpha f^S reaches the
origin only when alpha = 2 beta and S is a union P of whole pairs
f_{2j-1} f_{2j}, and then only at k = |beta| + |P|, with the value
c k! prod (2 beta_i)!/beta_i! 4^|P|, an integer times c: ``_reduce`` sums these
as integer numerators, times each k's radial factor, built once per call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Tuple

from .scalar import _ZERO, ExactScalar, RatLike, gamma_exact, pochhammer, recip_gamma, sphere_area
from .superpoly import (Signature, SuperPolynomial, _block, _collect, _denominator, _fractions,
                        mul_coordinate, nabla_lower)


class DegenerateDegreeError(ValueError):
    """Ball integral of a homogeneous piece with M + d = 0."""


class NonIntegrableError(ValueError):
    """Integrand not in any supported integrable class."""


# -- the dimensional-reduction sum ---------------------------------------------


def _laplacian_moments(f: SuperPolynomial, copy: int = 0):
    """({k: lap^k f with the chosen copy's variables set to zero}, D), ints over f's
    denominator D, by the module docstring's closed form (lap's summands commute);
    a pair gives +4 whatever bits lie below it, as in ``laplacian`` (for speed)."""
    slots, bits = _block(f.sig, f.copies, copy)
    lo, hi, zeros = slots.start, slots.stop, (0,) * len(slots)
    cmask = (1 << bits.stop) - (1 << bits.start)
    firsts = sum(1 << b for b in bits[::2])
    den, images = _denominator(f), {}
    for (bos, mask), c in f.terms.items():
        first = mask & firsts
        if mask & cmask == 3 * first and (kw := _moment_weight(bos[lo:hi], first.bit_count())):
            images.setdefault(kw[0], []).append((c, kw[1], (bos[:lo] + zeros + bos[hi:], mask & ~cmask)))
    return {k: _collect(images[k], den) for k in sorted(images)}, den


@lru_cache(maxsize=1024)
def _moment_weight(block: Tuple[int, ...], pairs: int):
    """(k, k! prod (2b_i)!/b_i! 4^pairs) for bosonic exponents 2b, else None."""
    if any(e % 2 for e in block):
        return None
    k = sum(block) // 2 + pairs
    return k, math.factorial(k) * 4**pairs * math.prod(math.factorial(e) // math.factorial(e // 2) for e in block)


def _reduce(f: SuperPolynomial, radial: Callable[[int], ExactScalar], copy: int = 0):
    """sum_k (lap^k f)|_{copy=0} radial(M + 2k) / ((4 pi)^k k!), the sum of the
    module docstring for the radial factor D -> I_D[h]: an ExactScalar on one
    copy, a polynomial in the other copy's variables on the doubled algebra;
    summed in ints, in the key and pi order of a polynomial sum over k."""
    moments, den = _laplacian_moments(f, copy)
    M, acc = f.sig.superdim, {}
    factors = {k: radial(M + 2 * k) * ExactScalar.pi_pow(-2 * k, Fraction(1, 4**k * math.factorial(k)))
               for k, g in moments.items() if any(g.values())}
    rden = math.lcm(*{q.denominator for r in factors.values() for q in r.terms.values()})
    for k, r in factors.items():
        _collect((({s + t: v for s, v in c.items()}, q.numerator * (rden // q.denominator), key)
                  for key, c in moments[k].items() for t, q in r.terms.items()), acc=acc)
        for key in [key for key, d in acc.items() if not d]:  # as a polynomial sum drops it
            del acc[key]
    if f.copies == 1:  # the constant key alone
        return _ZERO._with({s: Fraction(v, den * rden) for d in acc.values() for s, v in d.items()})
    return _fractions(f, acc, den * rden)


def pizzetti(f: SuperPolynomial, copy: int = 0):
    """Sphere integral over the chosen copy's supersphere, radial factor sigma_D.

    One-copy polynomials give an ExactScalar; on the doubled algebra the result
    is a polynomial in the remaining copy's variables.
    """
    return _reduce(f, sphere_area, copy)


def superball_poly(f: SuperPolynomial) -> ExactScalar:
    """Ball integral of a single-copy polynomial, radial factor sigma_D / D:
    the degree-d piece gets its sphere integral over M + d.  An even piece
    with M + d = 0 raises, even where its sphere integral is zero."""
    if f.copies != 1:
        raise ValueError("superball_poly works on single-copy polynomials")
    M = f.sig.superdim
    if M % 2 == 0 and -M in map(f._deg(None), f.terms):
        raise DegenerateDegreeError(f"ball integral of degree {-M} piece undefined at M = {M}")
    return _reduce(f, lambda D: sphere_area(D) * Fraction(1, D))


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


def integrate_superspace(f: SuperPolynomial, gaussian_a: RatLike) -> RadicalScalar:
    """Full-space integral of f * exp(-gaussian_a * R^2), exact, radial factor
    (pi/a)^{D/2} taken as pi^{D/2} a^{-ceil(D/2)}: the sqrt(a) of an odd M is
    applied once, as the radical part."""
    if f.copies != 1:
        raise ValueError("integrate_superspace works on single-copy polynomials")
    a = Fraction(gaussian_a)
    if a <= 0:
        raise NonIntegrableError("Gaussian weight needs a > 0")
    value = _reduce(f, lambda D: ExactScalar.pi_pow(D, a ** -((D + 1) // 2)))
    if f.sig.superdim % 2:
        return RadicalScalar(ExactScalar(), value, a)
    return RadicalScalar(value, ExactScalar(), a)


# -- 1D quadrature ------------------------------------------------------------


def quad_0_inf(fn: Callable[[float], float], tol: float = 1e-12) -> float:
    """Integral of fn over (0, inf) by exp-sinh quadrature (Takahasi-Mori,
    Publ. RIMS 9 (1974) 721): the trapezoid rule in t after the substitution
    x = exp(pi/2 sinh t), on |t| <= 5 (x from 2.6e-51 to 3.9e50), with the
    step halved from 1/2 down to 2^-9 until two levels agree to tol.

    The error estimate is the difference of the last two levels plus the
    trapezoid weight of the two end nodes, which a tail cut off at the ends
    (a divergent integral, such as that of 1/x) leaves large.  When |value| > 1
    the estimate is taken in units of |value|.  Raises NonIntegrableError when
    the integrand overflows, the value is not finite, or the estimate exceeds
    max(50 tol, 1e-8 min(1, |value|)) in those units.
    """

    def g(t: float) -> float:
        x = math.exp(math.pi / 2 * math.sinh(t))
        return fn(x) * x * (math.pi / 2 * math.cosh(t))

    h, n = 0.5, 10  # n h = 5
    try:
        lo, hi = g(-5.0), g(5.0)
        total = lo + hi + g(0.0) + sum(g(j * h) + g(-j * h) for j in range(1, n))
        val = h * total
        for _ in range(8):
            h, n = h / 2, 2 * n
            total += sum(g(j * h) + g(-j * h) for j in range(1, n, 2))
            prev, val = val, h * total
            err = abs(val - prev) + h * (abs(lo) + abs(hi))
            if err <= tol * max(1.0, abs(val)):
                break
    except OverflowError as exc:
        raise NonIntegrableError(f"integrand overflows on (0, inf): {exc}") from exc
    scale = max(1.0, abs(val))
    if not math.isfinite(val) or err > scale * max(50 * tol, 1e-8 * min(1.0, abs(val))):
        raise NonIntegrableError(
            f"integral over (0, inf) did not converge (value {val:.3g}, "
            f"error estimate {err:.1g})"
        )
    return val


# -- full-space integral of a radial profile: one Mellin moment ---------------


def reduce_integral(profile, sig: Signature):
    """Full-space integral of h(R^2), I_M[h] = pi^{M/2} Mellin[h](M/2): the
    k = 0 term of the module docstring's sum, by one formula at every M.

    A log-free RadialProfile is summed in closed form: at s = M/2 a term
    c u^b e^{-au} gives c Gamma(s+b)/Gamma(s) a^{-(s+b)} (c (s)_b a^{-(s+b)}
    for b in N_0; 0 for a = 0 or at a pole of Gamma(s)), exact when s + b is a
    half-integer and a^{-(s+b)} rational, else a float.  One rule, read term by
    term (divergences that cancel are refused too), raises NonIntegrableError:
    a < 0; a = 0 unless b is in N_0 and s + b < 0; b not in N_0 and s + b <= 0.

    Log factors and evaluators (callable on floats, .derivative() -> profile)
    go by parts, Mellin[h](s) = -Mellin[h'](s+1), to t = s + j, j = max(0,
    ceil(-s)): t = 0 reads (-1)^j h^{(j)}(0), exactly and from a RadialProfile
    only; t > 0 is (-1)^j pi^{M/2-t} sigma_{2t} times the quad_0_inf of
    v^{2t-1} h^{(j)}(v^2).  A RadialProfile is refused when h^{(j)} has a term
    with a <= 0, or is infinite at 0 where t = 0.
    """
    from .radial import RadialProfile  # here: pizzetti's callers need no radial

    M = sig.superdim
    symbolic = isinstance(profile, RadialProfile)
    if symbolic and not any(d for _, d, _ in profile.terms):
        moment, pre = _mellin(profile, Fraction(M, 2)), ExactScalar.pi_pow(M)
        return pre * moment if isinstance(moment, ExactScalar) else pre.to_float() * moment
    j = max(0, -(M // 2))
    e, d = M + 2 * j, profile  # e = 2t
    for _ in range(j):
        d = d.derivative()
    if symbolic and not all(a > 0 for _, _, a in d.terms):
        raise NonIntegrableError("profile is not exponentially decaying in every term")
    if e == 0:
        if not symbolic:
            raise NonIntegrableError(f"M = {M} reads h^({j})(0) alone: an evaluator's decay is unknown")
        val0 = d.value_exact_at_zero()
        if val0 is None:
            raise NonIntegrableError(f"h^({j}) diverges at u = 0")
        return ExactScalar.pi_pow(M, (-1) ** j) * val0
    pre = ExactScalar.pi_pow(-2 * j, (-1) ** j) * sphere_area(e)
    return pre.to_float() * quad_0_inf(lambda v: v ** (e - 1) * d(v * v))


def _mellin(h, s: Fraction):
    """Mellin[h](s) of a log-free RadialProfile under the rule of ``reduce_integral``."""
    rg, exact, surds, floats = recip_gamma(s), ExactScalar(), {}, []
    for (b, _, a), c in h.terms.items():
        p, natural = s + b, b.denominator == 1 and b >= 0
        if a < 0 or (a == 0 and not (natural and p < 0)):
            raise NonIntegrableError("profile is not exponentially decaying in every term")
        if not natural and p <= 0:
            raise NonIntegrableError(f"u^{b} diverges at u = 0 at M = {2 * s} (needs b > {-s})")
        if a == 0 or (rg.is_zero and not natural):
            continue  # a^{-(s+b)} = 0 or 1/Gamma(s) = 0
        if p.denominator > 2:
            floats.append(c.to_float() * math.gamma(p) * rg.to_float() * float(a) ** -float(p))
            continue
        term = c * (pochhammer(s, int(b)) if natural else gamma_exact(p) * rg) * a ** -math.floor(p)
        root = 1 if p.denominator == 1 else _rational_sqrt(a)
        if root is None:  # term a^{-1/2}: summed exactly, then divided once
            surds[a] = surds.get(a, ExactScalar()) + term
        else:
            exact = exact + term / root
    floats += [v.to_float() / math.sqrt(a) for a, v in surds.items()]
    return exact.to_float() + sum(floats) if floats else exact
