"""Finite Grassmann algebra on bitmask blades.

A blade is an int bitmask: bit i set means generator i+1 is present, and the
blade is the ascending product of its generators.  Signs come from counting the
inversions needed to merge two ascending products.  Coefficients are either
exact (ExactScalar) or numeric complex; both classes share the blade helpers.

Generator indexing is 1-based in public APIs (generator j lives on bit j-1).
The convention for the anticommuting "norm":  nsq = sum_k g_{2k-1} g_{2k},
so the square of the radius reads  r^2 - nsq  with a minus sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from .scalar import ExactScalar, RatLike
from .sparse import Sparse


def blade_sign(mask_a: int, mask_b: int) -> int:
    """Sign of x_A * x_B when merging two ascending blades (0 overlap assumed)."""
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        j = low.bit_length() - 1
        # generators of A strictly above j must hop over this one
        if (mask_a >> (j + 1)).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def blade_mul(mask_a: int, mask_b: int):
    """(sign, mask) for the product of two blades, or None when they overlap."""
    if mask_a & mask_b:
        return None
    return blade_sign(mask_a, mask_b), mask_a | mask_b


def derivative_sign(mask: int, bit: int) -> int:
    """Sign picked up by the left derivative d/dg_{bit+1} on the blade ``mask``."""
    return -1 if (mask & ((1 << bit) - 1)).bit_count() & 1 else 1


class GrassmannElement(Sparse):
    """Element of the Grassmann algebra on ``ngen`` generators, exact coefficients."""

    __slots__ = ("ngen",)
    _space = ("ngen",)
    _scalars = (int, Fraction, ExactScalar)
    _key_mul = staticmethod(blade_mul)

    def __init__(self, ngen: int, terms: Dict[int, ExactScalar] | None = None):
        self.ngen = ngen
        self.terms: Dict[int, ExactScalar] = {}
        if terms:
            for mask, c in terms.items():
                c = ExactScalar.coerce(c)
                if not c.is_zero:
                    if mask >> ngen:
                        raise ValueError(f"blade {mask:b} outside {ngen} generators")
                    self.terms[mask] = c

    @classmethod
    def scalar(cls, ngen: int, c: Union[ExactScalar, RatLike]) -> "GrassmannElement":
        return cls(ngen, {0: ExactScalar.coerce(c)})

    @classmethod
    def generator(cls, ngen: int, j: int) -> "GrassmannElement":
        """The j-th generator (1-based)."""
        if not 1 <= j <= ngen:
            raise ValueError(f"generator {j} out of range 1..{ngen}")
        return cls(ngen, {1 << (j - 1): ExactScalar.rational(1)})

    def coeff(self, mask: int) -> ExactScalar:
        return self.terms.get(mask, ExactScalar())

    def scalar_part(self) -> ExactScalar:
        return self.coeff(0)

    def __repr__(self):
        if not self.terms:
            return "GrassmannElement(0)"
        bits = []
        for mask in sorted(self.terms):
            gens = "".join(f"f{i + 1}" for i in range(self.ngen) if mask >> i & 1) or "1"
            bits.append(f"({self.terms[mask].to_text()})*{gens}")
        return " + ".join(bits)


def fermi_derivative(e, j: int):
    """Left derivative with respect to generator j (1-based), on either
    Grassmann class; distinct blades stay distinct, so no term cancels."""
    if not 1 <= j <= e.ngen:
        raise ValueError(f"generator {j} out of range 1..{e.ngen}")
    bit = j - 1
    return e._with({
        mask ^ (1 << bit): c if derivative_sign(mask, bit) > 0 else -c
        for mask, c in e.terms.items()
        if mask >> bit & 1
    })


def fermi_norm_sq(n: int) -> GrassmannElement:
    """nsq = sum_k g_{2k-1} g_{2k} on 2n generators (the square of the odd radius)."""
    terms = {}
    for k in range(n):
        terms[(1 << (2 * k)) | (1 << (2 * k + 1))] = ExactScalar.rational(1)
    return GrassmannElement(2 * n, terms)


def fermi_pow(e: GrassmannElement, p: int) -> GrassmannElement:
    out = GrassmannElement.scalar(e.ngen, 1)
    for _ in range(p):
        out = out * e
    return out


def fermi_laplacian(e: GrassmannElement, n: int) -> GrassmannElement:
    """The purely anticommuting piece of the Laplacian: -4 sum_j d_{2j-1} d_{2j}."""
    out = GrassmannElement(e.ngen)
    for j in range(1, n + 1):
        out = out + fermi_derivative(fermi_derivative(e, 2 * j), 2 * j - 1) * (-4)
    return out


def berezin(e: GrassmannElement, n: int) -> ExactScalar:
    """Berezin integral with the pi^{-n} normalization: picks the top blade.

    Equals pi^{-n} d_{2n} ... d_1 applied to e; on the ascending top blade
    g_1...g_{2n} the iterated derivative gives +1, so this is just the top
    coefficient times pi^{-n}.
    """
    if e.ngen != 2 * n:
        raise ValueError(f"element has {e.ngen} generators, expected {2 * n}")
    top = (1 << (2 * n)) - 1
    return e.coeff(top) * ExactScalar.pi_pow(-2 * n)


def berezin_via_laplacian(e: GrassmannElement, n: int) -> ExactScalar:
    """Dual route: pi^{-n}/(4^n n!) (fermionic Laplacian)^n, scalar part.

    Kept as an independent cross-check of the normalization in ``berezin``.
    """
    import math

    cur = e
    for _ in range(n):
        cur = fermi_laplacian(cur, n)
    return cur.scalar_part() * ExactScalar.pi_pow(-2 * n, Fraction(1, 4**n * math.factorial(n)))


# -- numeric twin ------------------------------------------------------------


class NumericGrassmann(Sparse):
    """Same algebra with complex coefficients, for quadrature-level work."""

    __slots__ = ("ngen",)
    _space = ("ngen",)
    _scalars = (int, float, complex)
    _key_mul = staticmethod(blade_mul)

    def __init__(self, ngen: int, terms: Dict[int, complex] | None = None):
        self.ngen = ngen
        self.terms: Dict[int, complex] = {}
        if terms:
            for mask, c in terms.items():
                c = complex(c)
                if abs(c) > 0.0:
                    self.terms[mask] = c

    @classmethod
    def scalar(cls, ngen: int, c: complex) -> "NumericGrassmann":
        return cls(ngen, {0: c})

    @classmethod
    def from_exact(cls, e: GrassmannElement) -> "NumericGrassmann":
        return cls(e.ngen, {m: complex(c.to_float()) for m, c in e.terms.items()})

    def coeff(self, mask: int) -> complex:
        return self.terms.get(mask, 0j)

    def power(self, p: int) -> "NumericGrassmann":
        out = NumericGrassmann.scalar(self.ngen, 1.0)
        for _ in range(p):
            out = out * self
        return out

    def max_abs_diff(self, other: "NumericGrassmann") -> float:
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.coeff(k) - other.coeff(k)) for k in keys), default=0.0)

    def __repr__(self):
        return f"NumericGrassmann({self.terms})"
