"""Exact scalar arithmetic and the small zoo of special functions used everywhere else.

The exact coefficient field is Q adjoined pi^(1/2) and pi^(-1/2): every value is a
finite sum  sum_s q_s * pi^(s/2)  with rational q_s and integer s.  This is closed
under products of gamma-function values at half-integers, which is all the exact
layer ever needs (sphere areas, Pizzetti weights, Funk-Hecke multipliers, ...).

Numeric special functions (Laguerre, Bessel J and the Bessel profile) live here
too so the higher modules share one implementation; the Gegenbauer recurrence is
``harmonics.kernel_values``, in whichever field its caller works.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Union

from .sparse import Sparse

RatLike = Union[int, Fraction]


class GammaPoleError(ZeroDivisionError):
    """Gamma evaluated at a nonpositive integer."""


def fraction_literal(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator reported by its literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {text.strip()!r}") from None


def _as_fraction(q: RatLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected int or Fraction, got {type(q).__name__}")


class ExactScalar(Sparse):
    """A finite sum  sum_s q_s * pi^(s/2)  (s integer, q_s rational, no zero terms).

    Immutable in practice: never mutate ``terms`` after construction.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, RatLike] | None = None):
        clean: Dict[int, Fraction] = {}
        if terms:
            for s, q in terms.items():
                q = _as_fraction(q)
                if q != 0:
                    clean[int(s)] = clean.get(int(s), Fraction(0)) + q
            clean = {s: q for s, q in clean.items() if q != 0}
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, q: RatLike) -> "ExactScalar":
        return cls.pi_pow(0, q)

    @classmethod
    def pi_pow(cls, s: int, coef: RatLike = 1) -> "ExactScalar":
        """coef * pi^(s/2)."""
        q = _as_fraction(coef)
        return _ZERO._with({s: q} if q else {})

    @classmethod
    def coerce(cls, v: "ExactScalar | RatLike") -> "ExactScalar":
        if isinstance(v, ExactScalar):
            return v
        return cls.rational(v)

    # -- predicates / extraction -----------------------------------------

    def to_float(self) -> float:
        return float(sum(float(q) * math.pi ** (s / 2.0) for s, q in self.terms.items()))

    __float__ = to_float

    # -- ring operations ---------------------------------------------------
    # ``*`` scales by ints and Fractions; ``+``, ``-`` and ``==`` lift them to
    # rational scalars

    _scalars = (int, Fraction)
    _compat = coerce
    __radd__ = Sparse.__add__

    def _mul(self, other):
        """The convolution of the two pi-exponent sequences."""
        out: Dict[int, Fraction] = {}
        for s, p in self.terms.items():
            for t, q in other.terms.items():
                k = s + t
                out[k] = out[k] + p * q if k in out else p * q
        return self._with({k: c for k, c in out.items() if c})

    def __hash__(self):
        # equal to its rational value, so it must hash like it
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return Sparse.__hash__(self)

    def __truediv__(self, other):
        other = ExactScalar.coerce(other)
        if len(other.terms) != 1:
            raise ZeroDivisionError(
                "can only divide by a nonzero monomial scalar q*pi^(s/2)"
            )
        ((s0, q0),) = other.terms.items()
        return self._with({s - s0: q / q0 for s, q in self.terms.items()})

    def __rtruediv__(self, other):
        return ExactScalar.coerce(other) / self

    # -- text form ---------------------------------------------------------
    # Grammar (round-trip exact):   scalar := term (('+' | ' - ') term)*
    #   term  := rational | rational '*' pipow | pipow
    #   pipow := 'pi' | 'pi^' int | 'pi^(' int '/2)'
    # Negative coefficients keep their sign on the rational part.

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for s in sorted(self.terms, reverse=True):
            q = self.terms[s]
            if s == 0:
                parts.append(str(q))
                continue
            if s % 2 == 0:
                p = "pi" if s == 2 else f"pi^{s // 2}"
            else:
                p = f"pi^({s}/2)"
            parts.append(p if q == 1 else f"{q}*{p}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        text = text.strip()
        if text == "0":
            return cls()
        chunks = split_terms(text)
        if not chunks:
            raise ValueError(f"empty scalar: {text!r}")
        out = cls()
        for chunk in chunks:
            out = out + _parse_scalar_term(chunk)
        return out

    def __repr__(self):
        return f"ExactScalar({self.to_text()!r})"


_ZERO = ExactScalar()


def split_terms(text: str) -> List[str]:
    """The nonblank terms of a sum, stripped: ``text`` split at each '+'
    outside parentheses, and at each ' - ' there (a '-' followed by
    whitespace) that follows a term, which reads as '+ -'."""
    terms, depth, start, sign = [], 0, 0, ""
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and (ch == "+" or ch == "-" and text[i + 1:i + 2].isspace()
                           and text[start:i].strip()):
            terms.append(sign + text[start:i].strip())
            start, sign = i + 1, "-" if ch == "-" else ""
    terms.append(sign + text[start:].strip())
    return [t for t in terms if t]


def _parse_scalar_term(chunk: str) -> ExactScalar:
    chunk = chunk.strip()
    if chunk.startswith("-pi") or chunk[:1] == "-" and chunk[1:2].isspace():
        return _parse_scalar_term(chunk[1:]) * Fraction(-1)
    coef = Fraction(1)
    s = 0
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not factor:
            continue
        if factor.startswith("pi"):
            rest = factor[2:]
            if rest == "":
                s += 2
            elif rest.startswith("^(") and rest.endswith("/2)"):
                s += int(rest[2:-3])
            elif rest.startswith("^"):
                s += 2 * int(rest[1:])
            else:
                raise ValueError(f"bad pi power: {factor!r}")
        else:
            coef *= fraction_literal(factor)
    return ExactScalar.pi_pow(s, coef)


# -- exact gamma machinery ---------------------------------------------------


def _check_half_integer(z: Fraction) -> Fraction:
    z = _as_fraction(z)
    if z.denominator not in (1, 2):
        raise ValueError(f"gamma argument must have denominator 1 or 2, got {z}")
    return z


def pochhammer(a: RatLike, j: int) -> Fraction:
    """Ascending factorial (a)_j = a (a+1) ... (a+j-1), exact."""
    if j < 0:
        raise ValueError("pochhammer needs j >= 0")
    a = _as_fraction(a)
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def recip_gamma(z: RatLike) -> ExactScalar:
    """1/Gamma(z) for half-integer z, exactly; zero at the poles of Gamma."""
    z = _check_half_integer(_as_fraction(z))
    if z.denominator == 1:
        zi = int(z)
        if zi <= 0:
            return ExactScalar()  # pole of Gamma
        return ExactScalar.rational(Fraction(1, math.factorial(zi - 1)))
    # z = j + 1/2
    j = int(z - Fraction(1, 2))
    if j >= 0:
        q = Fraction(4**j * math.factorial(j), math.factorial(2 * j))
        return ExactScalar.pi_pow(-1, q)
    # 1/Gamma(z) = (z)_k / Gamma(z + k): climb into the positive range
    k = -j
    return recip_gamma(z + k) * pochhammer(z, k)


def gamma_exact(z: RatLike) -> ExactScalar:
    """Gamma(z) for half-integer z; raises GammaPoleError at nonpositive integers."""
    z = _check_half_integer(_as_fraction(z))
    if z.denominator == 1 and z <= 0:
        raise GammaPoleError(f"Gamma pole at {z}")
    r = recip_gamma(z)
    return ExactScalar.rational(1) / r


@lru_cache(maxsize=256, typed=True)
def sphere_area(M: int) -> ExactScalar:
    """Total weight 2 pi^(M/2) / Gamma(M/2) of the unit supersphere integral.

    Vanishes exactly when M is a nonpositive even integer.  Built once per int M.
    """
    return ExactScalar.pi_pow(M, 2) * recip_gamma(Fraction(M, 2))


# -- orthogonal polynomial evaluations --------------------------------------


def laguerre_row(p: int, q: float, u: float) -> List[float]:
    """Generalized Laguerre values [L_0^{(q)}(u), ..., L_p^{(q)}(u)] by the
    standard three-term recurrence."""
    if p < 0:
        raise ValueError("laguerre needs p >= 0")
    row = [0.0, 1.0]  # L_{-1} = 0 seeds the recurrence
    for i in range(p):
        row.append(((2 * i + 1 + q - u) * row[-1] - (i + q) * row[-2]) / (i + 1))
    return row[1:]


def laguerre_coeffs(p: int, q: RatLike) -> List[Fraction]:
    """Exact power-basis coefficients of L_p^{(q)}:  L = sum_i c[i] u^i."""
    if p < 0:
        raise ValueError("laguerre needs p >= 0")
    q = _as_fraction(q)
    return [
        Fraction((-1) ** i) * pochhammer(q + i + 1, p - i)
        / (math.factorial(p - i) * math.factorial(i))
        for i in range(p + 1)
    ]


# -- Bessel ------------------------------------------------------------------


def bessel_j(nu: RatLike | float, t: float) -> float:
    """J_nu(t) = t^nu W_nu(t^2) for t >= 0, through ``bessel_profile``."""
    if t < 0:
        raise ValueError("bessel_j expects t >= 0")
    return t ** float(nu) * bessel_profile(float(nu), float(t) ** 2)


@lru_cache(maxsize=100_000)
def bessel_profile(nu: float, s: float) -> float:
    """W_nu(s) = J_nu(sqrt(s)) / sqrt(s)^nu, the entire profile with
    W_nu(0) = 1/(2^nu Gamma(nu+1)) and  W_nu'(s) = -W_{nu+1}(s)/2, by its
    power series (DLMF 10.2.2)

      W_nu(s) = 2^{-nu} sum_k (-s/4)^k / (k! Gamma(nu+k+1)).

    Past its largest term the series alternates with falling terms, so the
    first term below the float epsilon of the sum bounds the tail.  The
    rounding error is a few epsilon of sum_k |term_k|.  Raises ValueError
    outside -4 <= nu <= 100, 0 <= s <= 100, the range pinned against a
    30-digit J_nu: it holds every order and argument the CLI reaches
    (-7/2 <= nu <= 85, s <= 14.75) and the tests' (s <= 81)."""
    if not (-4 <= nu <= 100 and 0 <= s <= 100):
        raise ValueError(f"bessel_profile({nu}, {s}) outside -4 <= nu <= 100, 0 <= s <= 100")
    x = -s / 4
    k = int(-nu) if nu < 0 and nu == int(nu) else 0  # 1/Gamma(nu+k+1) vanishes below
    term = x**k / (math.factorial(k) * math.gamma(nu + k + 1))
    total = term
    while True:
        k += 1
        term *= x / (k * (nu + k))
        total += term
        if k * (nu + k) > -x and abs(term) <= 2.0**-53 * abs(total):
            return total * 2.0**-nu

