"""Spherically symmetric superfunctions.

A radial profile is a scalar function h on (0, oo) with derivative access; the
associated superfunction is the fermionic Taylor expansion

    h(R^2) = sum_{j=0}^n (-1)^j (x'^{2j} / j!) h^{(j)}(r^2),

where x'^2 is the anticommuting norm square and r^2 the bosonic one.  A
``RadialProfile`` is an exact element of the family

    u^beta * log(u)^delta * exp(-a u)        (beta, a rational, delta >= 0)

which is closed under d/du and products and covers powers, power-times-log,
exponentials, Laguerre-times-exponential and polynomials; it differentiates
exactly and never expires.  A ``NumericProfile`` is an opaque evaluator
(j, t) -> phi^{(j)}(t) with a declared maximal order; it has no arithmetic and
fails fast once the declared order is exhausted.  It is the one numeric
function type: radial profiles, zonal kernels phi(<x,y>) and Bessel factors
alike, composed through the nilpotent Taylor series of ``compose_value``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .grassmann import NumericGrassmann
from .harmonics import UnsupportedSignatureError
from .scalar import (
    ExactScalar, RatLike, _as_fraction, fraction_literal, gamma_exact, laguerre_coeffs,
)
from .sparse import Sparse
from .superpoly import Signature, SuperPolynomial, mul_r2

# term key: (beta, delta, a) represents u^beta * log(u)^delta * exp(-a u)
ProfileKey = Tuple[Fraction, int, Fraction]


class RadialProfile(Sparse):
    """Exact linear combination over the closed profile family."""

    __slots__ = ("_floats",)  # the terms as floats, set on the first call

    _scalars = (int, Fraction, ExactScalar)
    j_max = None  # derivatives of every order are available

    def __init__(self, terms: Dict[ProfileKey, ExactScalar] | None = None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @staticmethod
    def _key_mul(ka: ProfileKey, kb: ProfileKey):
        return 1, (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])

    def mul_power(self, delta: RatLike) -> "RadialProfile":
        """Multiply by u^{delta} (also the exact division route for u-powers)."""
        db = _as_fraction(delta)
        return self._with({(b + db, d, a): c for (b, d, a), c in self.terms.items()})

    def derivative(self) -> "RadialProfile":
        out: Dict[ProfileKey, ExactScalar] = {}

        def put(key: ProfileKey, c: ExactScalar) -> None:
            out[key] = out.get(key, ExactScalar()) + c

        for (b, d, a), c in self.terms.items():
            if b:
                put((b - 1, d, a), c * b)
            if d:
                put((b - 1, d - 1, a), c * d)
            if a:
                put((b, d, a), c * (-a))
        return self._with({k: c for k, c in out.items() if c})

    def __call__(self, u: float) -> float:
        if u == 0:
            v = self.value_exact_at_zero()
            if v is None:
                raise ValueError("profile diverges at u = 0")
            return v.to_float()
        try:
            terms = self._floats
        except AttributeError:
            terms = self._floats = [
                (c.to_float(), float(b), d, float(a)) for (b, d, a), c in self.terms.items()
            ]
        total = 0.0
        lu = math.log(u)
        for c, b, d, a in terms:
            damping = math.exp(-a * u)
            if damping == 0.0:
                continue  # below the float range; u^b alone may overflow here
            total += c * u**b * lu**d * damping
        return total

    def value_exact_at_zero(self) -> Optional[ExactScalar]:
        """Continuous limit at u -> 0+ when finite, else None."""
        total = ExactScalar()
        for (b, d, a), c in self.terms.items():
            if b < 0 or (b == 0 and d > 0):
                return None
            if b == 0:
                total = total + c  # u^0 log^0 e^{0} -> 1
        return total

    def polynomial_coeffs(self) -> Optional[Dict[int, ExactScalar]]:
        """{power: coeff} when the profile is a polynomial in u, else None."""
        out: Dict[int, ExactScalar] = {}
        for (b, d, a), c in self.terms.items():
            if d or a or b.denominator != 1 or b < 0:
                return None
            out[int(b)] = out.get(int(b), ExactScalar()) + c
        return out

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (b, d, a), c in sorted(self.terms.items()):
            s = c.to_text()
            if b:
                s += f" u^{b}"
            if d:
                s += f" log^{d}" if d > 1 else " log"
            if a:
                s += f" e^(-{a}u)" if a > 0 else f" e^({-a}u)"
            parts.append(s)
        return " + ".join(parts)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def power(cls, alpha: RatLike) -> "RadialProfile":
        key = (_as_fraction(alpha), 0, Fraction(0))
        return cls({key: ExactScalar.rational(1)})

    @classmethod
    def power_log(cls, alpha: RatLike) -> "RadialProfile":
        key = (_as_fraction(alpha), 1, Fraction(0))
        return cls({key: ExactScalar.rational(1)})

    @classmethod
    def exponential(cls, a: RatLike = 1) -> "RadialProfile":
        key = (Fraction(0), 0, _as_fraction(a))
        return cls({key: ExactScalar.rational(1)})

    @classmethod
    def polynomial(cls, coeffs: Sequence) -> "RadialProfile":
        return cls({
            (Fraction(i), 0, Fraction(0)): ExactScalar.coerce(c)
            for i, c in enumerate(coeffs)
        })

    @classmethod
    def laguerre_exp(cls, j: int, q: RatLike, a: RatLike = Fraction(1, 2)) -> "RadialProfile":
        """L_j^{(q)}(u) * exp(-a u)."""
        af = _as_fraction(a)
        return cls({
            (Fraction(i), 0, af): ExactScalar.rational(c)
            for i, c in enumerate(laguerre_coeffs(j, _as_fraction(q)))
        })

    @classmethod
    def zero(cls) -> "RadialProfile":
        return cls()

    # -- serialization of the tagged closed-family forms ----------------------

    _TAG_RE = re.compile(r"^\s*(pow|powlog|exp|lagexp|poly)\s*\((.*)\)\s*$")
    _COEF_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\*\s*(.*)$")
    _ARGS = {"pow": "(alpha)", "powlog": "(alpha)", "exp": "(a)", "poly": "([c0, c1, ...])",
             "lagexp": "(j, q, a) with integer j >= 0"}

    @classmethod
    def parse(cls, text: str) -> "RadialProfile":
        """Tagged forms: pow(alpha) = u^alpha, powlog(alpha) = u^alpha log u,
        exp(a) = e^{-au}, lagexp(j,q,a) = L_j^q(u) e^{-au}, poly([c0,c1,...]);
        an optional rational prefix scales, e.g. "-1*pow(-1/2)"."""
        coef = Fraction(1)
        mc = cls._COEF_RE.match(text)
        if mc:
            coef, text = fraction_literal(mc.group(1)), mc.group(2)
        elif text.strip().startswith("-"):
            coef, text = Fraction(-1), text.strip()[1:]
        m = cls._TAG_RE.match(text)
        if not m:
            raise ValueError(f"unrecognized profile: {text!r}")
        if coef != 1:
            return cls.parse(text) * coef
        tag, body = m.group(1), m.group(2).strip()
        try:
            if tag == "lagexp":
                j, q, a = (p.strip() for p in body.split(","))
                if not j.isdecimal():
                    raise ValueError
                return cls.laguerre_exp(int(j), fraction_literal(q), fraction_literal(a))
            if tag == "poly":
                if not (body.startswith("[") and body.endswith("]")):
                    raise ValueError
                return cls.polynomial([fraction_literal(p) for p in body[1:-1].split(",") if p.strip()])
            return {"pow": cls.power, "powlog": cls.power_log, "exp": cls.exponential}[tag](
                fraction_literal(body))
        except ValueError:
            raise ValueError(f"{tag} wants {cls._ARGS[tag]}: {text.strip()!r}") from None

    # -- evaluation and exact hooks -------------------------------------------

    def eval_deriv(self, order: int, u: float) -> float:
        d = self
        for _ in range(order):
            d = d.derivative()
        return d(u)


class NumericProfile:
    """A function given by an evaluator (order, t) -> phi^{(order)}(t), valid
    up to ``j_max`` (math.inf: every order); values may be complex."""

    __slots__ = ("_fn", "j_max")

    def __init__(self, fn: Callable[[int, float], complex], j_max: float):
        self._fn = fn
        self.j_max = j_max

    @classmethod
    def polynomial(cls, coeffs: Sequence[RatLike]) -> "NumericProfile":
        cf = [Fraction(c) for c in coeffs]

        def fn(i: int, t: float):
            tot = 0.0
            for p in range(i, len(cf)):
                tot += float(cf[p]) * math.perm(p, i) * t ** (p - i)
            return tot

        return cls(fn, math.inf)

    @classmethod
    def exp_i(cls, v: float) -> "NumericProfile":
        """phi(t) = exp(i v t)."""
        return cls(lambda i, t: (1j * v) ** i * complex(math.cos(v * t), math.sin(v * t)),
                   math.inf)

    def eval_deriv(self, order: int, u: float) -> float:
        if order > self.j_max:
            raise ValueError(
                f"derivative order {order} unavailable (declared max {self.j_max})"
            )
        return self._fn(order, u)

    def __call__(self, u: float) -> float:
        return self.eval_deriv(0, u)

    def derivative(self) -> "NumericProfile":
        if self.j_max < 1:
            raise ValueError("derivative order unavailable (declared max 0)")
        fn = self._fn
        return NumericProfile(lambda j, u: fn(j + 1, u), self.j_max - 1)

    def to_text(self) -> str:
        return f"<numeric profile, j_max={self.j_max}>"


class RadialSuperfunction(NamedTuple):
    """h(R^2) for a profile h on a fixed signature."""

    sig: Signature
    profile: RadialProfile

    def expand(self, r: float) -> NumericGrassmann:
        return radial_expand(self.profile, self.sig, r)

    def as_polynomial(self) -> SuperPolynomial:
        """Exact polynomial form when the profile is a polynomial in u."""
        coeffs = self.profile.polynomial_coeffs()
        if coeffs is None:
            raise ValueError("profile is not polynomial")
        out = SuperPolynomial.zero(self.sig)  # sum_p c_p R^{2p} by Horner
        for p in range(max(coeffs, default=0), -1, -1):
            out = mul_r2(out) + SuperPolynomial.constant(self.sig, coeffs.get(p, 0))
        return out


def fermionic_expansion(values: Sequence[complex], n: int) -> NumericGrassmann:
    """sum_j (-1)^j x'^{2j}/j! values[j] on 2n generators: the fermionic
    Taylor assembly of a profile from its derivatives values[j] at r^2."""
    nsq = NumericGrassmann(2 * n, {3 << (2 * k): 1.0 for k in range(n)})
    out = NumericGrassmann(2 * n)
    for j in range(n + 1):
        out = out + nsq.power(j) * (((-1) ** j / math.factorial(j)) * values[j])
    return out


def radial_expand(h: RadialProfile, sig: Signature, r: float) -> NumericGrassmann:
    """Grassmann-valued evaluation of h(R^2) at bosonic radius r > 0."""
    if r <= 0:
        raise ValueError("bosonic radius must be positive")
    n = sig.n
    if h.j_max is not None and h.j_max < n:
        raise ValueError(f"derivative order {n} unavailable (declared max {h.j_max})")
    u = r * r
    return fermionic_expansion([h.eval_deriv(j, u) for j in range(n + 1)], n)


def radial_power(sig: Signature, alpha: RatLike) -> RadialSuperfunction:
    """R^alpha as a radial superfunction (profile u^{alpha/2})."""
    return RadialSuperfunction(sig, RadialProfile.power(_as_fraction(alpha) / 2))


def compose_value(h: RadialProfile, value: NumericGrassmann, n: int) -> NumericGrassmann:
    """h(f) = sum_{j<=2n} f_1^j/j! h^{(j)}(f_0) on an evaluated even superfunction."""
    body_c = value.coeff(0)
    if abs(body_c.imag) > 1e-13 * max(1.0, abs(body_c)):
        raise ValueError("composition needs a real body")
    body = body_c.real
    nil = value - NumericGrassmann.scalar(value.ngen, body_c)
    out = NumericGrassmann(value.ngen)
    term = NumericGrassmann.scalar(value.ngen, 1.0)
    for j in range(2 * n + 1):
        if j:
            term = term * nil
        out = out + term * (h.eval_deriv(j, body) / math.factorial(j))
        if not term.terms:
            break
    return out


# -- dimensional-reduction calculus ------------------------------------------


def radial_gradient(
    h: RadialProfile, sig: Signature
) -> Tuple[List[SuperPolynomial], RadialProfile]:
    """Factored gradient: grad h(R^2) = X_k * p(R^2) componentwise (lower
    index), with p = 2 h'."""
    vec = [SuperPolynomial.coordinate(sig, k) for k in range(1, sig.total_vars + 1)]
    return vec, h.derivative() * Fraction(2)


def euler_profile(h: RadialProfile) -> RadialProfile:
    """Profile of E h(R^2) = 2 R^2 h'(R^2)."""
    return h.derivative().mul_power(1) * Fraction(2)


def laplacian_profile(h: RadialProfile | NumericProfile, M: int):
    """Profile of the Laplacian on radial functions: 4 u h'' + 2 M h'.  With
    M + 2k in place of M it is the profile g of lap(h(R^2) H_k) = g(R^2) H_k.

    A symbolic profile goes in one sweep: c u^b log^d e^{-au} sends c times
    b(4b-4+2M), d(8b-4+2M), 4d(d-1), -a(8b+2M), -8ad and 4a^2 to
    (b-1, d), (b-1, d-1), (b-1, d-2), (b, d), (b, d-1) and (b+1, d)."""
    if isinstance(h, RadialProfile):
        out: Dict[ProfileKey, ExactScalar] = {}
        for (b, d, a), c in h.terms.items():
            for key, w in (((b - 1, d, a), b * (4 * b - 4 + 2 * M)),
                           ((b - 1, d - 1, a), d * (8 * b - 4 + 2 * M)),
                           ((b - 1, d - 2, a), 4 * d * (d - 1)),
                           ((b, d, a), -a * (8 * b + 2 * M)),
                           ((b, d - 1, a), -8 * a * d),
                           ((b + 1, d, a), 4 * a * a)):
                if w:
                    p = c * w
                    out[key] = out[key] + p if key in out else p
        return h._with({k: c for k, c in out.items() if c})
    # numeric: g^{(j)}(u) = 4 u h^{(j+2)}(u) + (4j + 2M) h^{(j+1)}(u)
    if h.j_max < 2:
        raise ValueError("derivative order unavailable for the radial Laplacian")
    return NumericProfile(
        lambda j, u: 4.0 * u * h.eval_deriv(j + 2, u) + (4 * j + 2 * M) * h.eval_deriv(j + 1, u),
        h.j_max - 2,
    )


# -- fundamental solutions of iterated Laplacians ----------------------------


def iterated_laplacian_constant(l: int, M: int) -> ExactScalar:
    """2^{2l+1} l! * 2 pi^{M/2} / Gamma(M/2 - l - 1); exact for M odd."""
    if M % 2 == 0:
        raise ValueError("exact normalization available for odd superdimension only")
    num = ExactScalar.pi_pow(M, Fraction(2 ** (2 * l + 1) * math.factorial(l) * 2))
    return num / gamma_exact(Fraction(M, 2) - l - 1)


def fundamental_solution(sig: Signature, l: int) -> RadialSuperfunction:
    """Radial superfunction nu_{2l} with lap^l nu_{2l} = (-1)^l delta.

    Odd superdimension: exactly normalized power profile; two independent
    constructions (direct M-form and the bosonic-solution prefactor form) are
    built and must agree.  Even positive superdimension: the power or
    power-times-log profile with the normalization left at 1 (the even-case
    constants are not pinned here); only harmonicity off the origin is exact.
    """
    M = sig.superdim
    if l < 1:
        raise ValueError("l >= 1 required")
    if M <= 0 and M % 2 == 0:
        raise UnsupportedSignatureError(f"no fundamental solution family at M = {M}")
    s = Fraction(2 * l - M, 2)
    if M % 2:
        direct = RadialProfile.power(s) * (
            ExactScalar.rational(1) / iterated_laplacian_constant(l - 1, M)
        )
        n = sig.n
        pre = ExactScalar.pi_pow(
            2 * n, Fraction(4**n * math.factorial(n + l - 1), math.factorial(l - 1))
        )
        other = RadialProfile.power(s) * (
            pre / iterated_laplacian_constant(l + n - 1, sig.m)
        )
        if not (direct - other).is_zero:
            raise AssertionError("fundamental-solution constructions disagree")
        return RadialSuperfunction(sig, direct)
    if l < M // 2:
        return RadialSuperfunction(sig, RadialProfile.power(s))
    # -R^{2l-M} log R = -(1/2) u^{l-M/2} log u, normalization constant omitted
    return RadialSuperfunction(sig, RadialProfile.power_log(s) * Fraction(-1, 2))


def fundamental_normalization_check(sig: Signature, l: int) -> Tuple[ExactScalar, ExactScalar]:
    """Constant chain for the top-Grassmann route vs the direct constant.

    Returns (gamma_{l-1,m} * pi^{-n} * Gamma(m/2-l)/Gamma(M/2-l),
    gamma_{l-1,M}); the two must be equal, odd superdimension only.
    """
    M = sig.superdim
    if M % 2 == 0:
        raise ValueError("normalization chain is exact for odd superdimension only")
    lhs = (
        iterated_laplacian_constant(l - 1, sig.m)
        * ExactScalar.pi_pow(-2 * sig.n)
        * gamma_exact(Fraction(sig.m, 2) - l)
        / gamma_exact(Fraction(M, 2) - l)
    )
    rhs = iterated_laplacian_constant(l - 1, M)
    return lhs, rhs
