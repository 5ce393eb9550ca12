"""One sparse-term core under every algebra of the package.

Exact scalars, numeric Grassmann elements, symbolic radial profiles and
superpolynomials (whose purely odd part is the exact Grassmann algebra) are
all a dict from a graded key to a coefficient.  ``Sparse`` holds that dict and the arithmetic over it; a
subclass supplies only what is its own:

* ``_space``: the names of the attributes that fix the algebra (``ngen``,
  ``sig`` and ``copies``); operands must agree on them;
* ``_scalars``: the plain scalar types that ``*`` scales by;
* ``_key_mul(ka, kb)``: ``(sign, key)`` for the product of two basis
  elements, or ``None`` when it vanishes.  It serves ``NumericGrassmann`` and
  ``RadialProfile``; ``ExactScalar`` (a convolution over pi exponents) and
  ``SuperPolynomial`` (one pass that sums pi-exponent dicts per key) own
  their ``_mul``.

Two invariants hold for every instance:

* no coefficient is zero, so ``terms == {}`` is the zero element and
  coefficients must be falsy exactly when zero (``Fraction``, ``complex`` and
  ``ExactScalar`` are);
* ``terms`` is never mutated after construction, so results may share it.

Public constructors of the subclasses validate their input; ``_with`` is the
trusted route for results whose keys are valid and coefficients nonzero.
"""

from __future__ import annotations

from typing import Tuple


class Sparse:
    __slots__ = ("terms",)

    _space: Tuple[str, ...] = ()
    _scalars: Tuple[type, ...] = ()

    def _with(self, terms: dict):
        """An element of this algebra with ``terms`` taken as they are."""
        out = object.__new__(type(self))
        for name in self._space:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _compat(self, other):
        """``other`` as an operand of this algebra: TypeError for a foreign
        type, ValueError for the same type on a different space."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        for name in self._space:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(f"{type(self).__name__} operands differ in {name}")
        return other

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                s = out[k] + c
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        return self._with(out)

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                s = out[k] - c
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = -c
        return self._with(out)

    def scale(self, c):
        """Every coefficient times the scalar ``c``."""
        return self._with({k: p for k, v in self.terms.items() if (p := v * c)})

    def _mul(self, other):
        key_mul = self._key_mul
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                sk = key_mul(ka, kb)
                if sk is None:
                    continue
                sign, key = sk
                p = ca * cb if sign > 0 else -(ca * cb)
                out[key] = out[key] + p if key in out else p
        return self._with({k: c for k, c in out.items() if c})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        try:
            other = self._compat(other)
        except TypeError:  # a foreign type: its __rmul__ may scale by this one
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        return NotImplemented

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        try:
            other = self._compat(other)
        except TypeError:
            return NotImplemented
        except ValueError:
            return False
        return self.terms == other.terms

    def __hash__(self):
        space = tuple(getattr(self, name) for name in self._space)
        return hash(space + (tuple(sorted(self.terms.items())),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)
