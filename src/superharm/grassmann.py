"""Finite Grassmann algebra on bitmask blades, with complex coefficients.

A blade is an int bitmask: bit i set means generator i+1 is present, and the
blade is the ascending product of its generators.  Signs come from counting the
inversions needed to merge two ascending products.  The exact Grassmann
algebra is the purely anticommuting part of ``superpoly.SuperPolynomial``
(keys ``((0,) * m, mask)``), which uses the same blade helpers;
``NumericGrassmann`` is its numeric image, for quadrature-level work.

Generator indexing is 1-based in public APIs (generator j lives on bit j-1).
The convention for the anticommuting "norm":  nsq = sum_k g_{2k-1} g_{2k},
so the square of the radius reads  r^2 - nsq  with a minus sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

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


# -- numeric twin ------------------------------------------------------------


class NumericGrassmann(Sparse):
    """The Grassmann algebra on ``ngen`` generators with complex coefficients:
    the numeric image of the purely odd SuperPolynomials, as produced by
    ``SuperPolynomial.evaluate_bosonic``."""

    __slots__ = ("ngen",)
    _space = ("ngen",)
    _scalars = (int, Fraction, float, complex)
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
