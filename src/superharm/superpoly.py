"""Polynomials on a space with m commuting and 2n anticommuting coordinates.

Monomials are keyed by (bosonic exponent tuple, fermionic bitmask) and carry
ExactScalar coefficients.  A polynomial may live on one coordinate set or on a
doubled set (two supervectors x and y) for two-point kernels; the doubled
fermionic generators share one Grassmann algebra.  ``_block`` owns the layout
(copy c: bosonic slots c*m..c*m+m-1, generator bits c*2n..c*2n+2n-1) and
refuses a copy the polynomial lacks.

Conventions (fixed once, used everywhere):

* coordinates: X_1..X_m bosonic, X_{m+j} the j-th anticommuting generator;
* metric: ``metric_entries`` is the one table of g^{ab}: +1 on the bosonic
  diagonal, g^{m+2j-1, m+2j} = -1/2 and g^{m+2j, m+2j-1} = +1/2 on each
  anticommuting pair.  Indices contract from the left, v^a = sum_b v_b g^{ba},
  so v^{m+2j-1} = v_{m+2j}/2 and v^{m+2j} = -v_{m+2j-1}/2; raising, the
  two-point pairing and the Casimir all read the table;
* gradient (lower components): (d_1, ..., d_m, 2 df_2, -2 df_1, ..., 2 df_{2n},
  -2 df_{2n-1}) where df_j is the left derivative on generator j; ``_lowered``
  owns this inverse pair block;
* Laplacian: sum_i d_i^2 - 4 sum_j df_{2j-1} df_{2j};  super-dimension M = m-2n.
* Casimir: -1/2 L_ij g^{jk} g^{il} L_kl contracts the inner index of the left
  generator with the outer index of the right one, the reading that agrees
  with ``laplace_beltrami`` (pairing i with k flips the bosonic block's sign).

Textual form (bit-exact round trip): terms joined by " + ", each term a scalar
coefficient followed by space-separated factors, e.g.

    3/2*pi^(1/2) x1^2 f1 f2 + (1 + -2*pi^(-1/2)) x2

Variables are x1..xm / f1..f2n, and y1..ym / g1..g2n on the doubled set.
Multi-term scalars are parenthesized; scalars follow ExactScalar.to_text.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from .grassmann import NumericGrassmann, blade_sign, derivative_sign
from .scalar import _ZERO, ExactScalar, RatLike, split_terms
from .sparse import Sparse

TermKey = Tuple[Tuple[int, ...], int]


class _SignatureFields(NamedTuple):
    m: int
    n: int


class Signature(_SignatureFields):
    """m bosonic coordinates, 2n anticommuting generators.

    An immutable pair: equality and hashing are the tuple's, which
    ``Sparse._compat`` relies on for every algebra operation."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 1 or n < 0:
            raise ValueError(f"need m >= 1, n >= 0; got m={m}, n={n}")
        return tuple.__new__(cls, (m, n))

    @property
    def superdim(self) -> int:
        return self.m - 2 * self.n

    @property
    def total_vars(self) -> int:
        return self.m + 2 * self.n

    def __str__(self):
        return f"R^({self.m}|{2 * self.n})"


def _block(sig: Signature, copies: int, copy: int) -> Tuple[range, range]:
    """The bosonic slots and generator bits of copy ``copy`` in the term keys."""
    if copy not in range(copies):
        raise ValueError(f"copy {copy} not in range({copies})")
    m, n2 = sig.m, 2 * sig.n
    return range(copy * m, copy * m + m), range(copy * n2, copy * n2 + n2)


class SuperPolynomial(Sparse):
    __slots__ = ("sig", "copies")
    _space = ("sig", "copies")
    _scalars = (int, Fraction, ExactScalar)

    def __init__(self, sig: Signature, terms: Dict[TermKey, "ExactScalar | RatLike"] | None = None,
                 copies: int = 1):
        if copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        self.sig = sig
        self.copies = copies
        self.terms: Dict[TermKey, ExactScalar] = {}
        nb = copies * sig.m
        if terms:
            for (bos, mask), c in terms.items():
                c = ExactScalar.coerce(c)
                if c.is_zero:
                    continue
                if len(bos) != nb:
                    raise ValueError(f"exponent tuple has length {len(bos)}, expected {nb}")
                if mask >> (copies * 2 * sig.n):
                    raise ValueError("fermionic mask outside the algebra")
                self.terms[(tuple(bos), mask)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature, copies: int = 1) -> "SuperPolynomial":
        return cls(sig, {}, copies)

    @classmethod
    def constant(cls, sig: Signature, c, copies: int = 1) -> "SuperPolynomial":
        return cls(sig, {((0,) * (copies * sig.m), 0): ExactScalar.coerce(c)}, copies)

    @classmethod
    def coordinate(cls, sig: Signature, k: int, copies: int = 1, copy: int = 0) -> "SuperPolynomial":
        """X_k (1-based, k in 1..m+2n) on the chosen copy."""
        m = sig.m
        if not 1 <= k <= sig.total_vars:
            raise ValueError(f"coordinate {k} out of range")
        slots, bits = _block(sig, copies, copy)
        bos = [0] * (copies * m)
        mask = 0
        if k <= m:
            bos[slots[k - 1]] = 1
        else:
            mask = 1 << bits[k - m - 1]
        return cls(sig, {(tuple(bos), mask): ExactScalar.rational(1)}, copies)

    # -- bookkeeping -------------------------------------------------------

    def coeff(self, bos: Sequence[int], mask: int) -> ExactScalar:
        return self.terms.get((tuple(bos), mask), ExactScalar())

    def constant_term(self) -> ExactScalar:
        return self.coeff((0,) * (self.copies * self.sig.m), 0)

    def _deg(self, copy: int | None) -> Callable[[TermKey], int]:
        """key -> the term's total degree, or its degree in one copy's variables."""
        if copy is None:
            return lambda key: sum(key[0]) + key[1].bit_count()
        slots, bits = _block(self.sig, self.copies, copy)
        lo, hi, shift, low = slots.start, slots.stop, bits.start, (1 << len(bits)) - 1
        return lambda key: sum(key[0][lo:hi]) + (key[1] >> shift & low).bit_count()

    def degree(self, copy: int | None = None) -> int:
        """Total degree (or degree in one copy's variables); -1 for the zero polynomial."""
        return max(map(self._deg(copy), self.terms), default=-1)

    def homogeneous_components(self, copy: int | None = None) -> Dict[int, "SuperPolynomial"]:
        parts: Dict[int, Dict[TermKey, ExactScalar]] = {}
        deg = self._deg(copy)
        for key, c in self.terms.items():
            parts.setdefault(deg(key), {})[key] = c
        return {d: self._with(t) for d, t in sorted(parts.items())}

    # -- ring operations ---------------------------------------------------

    def _mul(self, other):
        """The product in one pass over the term pairs, with no scalar object
        per pair when the left coefficient is one term: each result key sums
        {pi exponent: Fraction} dicts, wrapped into one ExactScalar at the
        end.  A left coefficient of +-1 (the coordinates, R^2) adds the right
        one as it is, its sign folded into the blade sign.  Keys and pi
        exponents keep the order of a term-by-term sum, so floats do not move."""
        acc: Dict[TermKey, Dict[int, Fraction]] = {}
        right = other.terms.items()
        for (ba, ma), ca in self.terms.items():
            lone = next(iter(ca.terms.items())) if len(ca.terms) == 1 else None
            unit = lone == (0, 1)
            flip = not unit and lone == (0, -1)
            for (bb, mb), cb in right:
                if ma & mb:
                    continue
                neg = (ma and mb and blade_sign(ma, mb) < 0) != flip
                key = (tuple(map(add, ba, bb)), ma | mb)
                d = acc.get(key)
                if d is None:
                    d = acc[key] = {}
                if unit or flip:
                    prod = cb.terms.items()
                elif lone:
                    s, p = lone
                    prod = [(s + t, p * q) for t, q in cb.terms.items()]
                else:  # two sums of pi powers: their convolution may cancel
                    prod = ca._mul(cb).terms.items()
                for k, v in prod:
                    if k in d:
                        v = d[k] - v if neg else d[k] + v
                        if v:
                            d[k] = v
                        else:
                            del d[k]
                    else:
                        d[k] = -v if neg else v
        scalar = _ZERO._with
        return self._with({key: scalar(d) for key, d in acc.items() if d})

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError("negative power")
        out = SuperPolynomial.constant(self.sig, 1, self.copies)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base if p > 1 else base
            p >>= 1
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate_bosonic(self, coords: Sequence[float]) -> NumericGrassmann:
        """Evaluate the commuting variables at ``coords`` (length copies*m); the
        anticommuting part is kept symbolic as a NumericGrassmann element."""
        nb = self.copies * self.sig.m
        if len(coords) != nb:
            raise ValueError(f"expected {nb} coordinates")
        ngen = self.copies * 2 * self.sig.n
        out: Dict[int, complex] = {}
        for (bos, mask), c in self.terms.items():
            v = complex(c.to_float())
            for e, x in zip(bos, coords):
                if e:
                    v *= x**e
            out[mask] = out.get(mask, 0j) + v
        return NumericGrassmann(ngen, out)

    # -- copy plumbing -----------------------------------------------------

    def embed_doubled(self) -> "SuperPolynomial":
        """View a single-copy polynomial inside the doubled algebra (x-block)."""
        if self.copies == 2:
            return self
        m, n = self.sig.m, self.sig.n
        out = {}
        for (bos, mask), c in self.terms.items():
            out[(bos + (0,) * m, mask)] = c
        return SuperPolynomial(self.sig, out, 2)

    def to_y_copy(self) -> "SuperPolynomial":
        """Send x-variables to the matching y-variables (doubled algebra).

        Only valid for elements supported on the x-block; the ascending order
        inside a block is preserved, so no signs appear.
        """
        m, n = self.sig.m, self.sig.n
        src = self.embed_doubled()
        out = {}
        for (bos, mask), c in src.terms.items():
            if any(bos[m:]) or mask >> (2 * n):
                raise ValueError("polynomial already involves y-variables")
            out[((0,) * m + bos[:m], mask << (2 * n))] = c
        return SuperPolynomial(self.sig, out, 2)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        m, n = self.sig.m, self.sig.n
        chunks, deg = [], self._deg(None)
        for key in sorted(self.terms, key=lambda k: (deg(k), k[0], k[1])):
            bos, mask = key
            c = self.terms[key]
            ctext = c.to_text()
            if len(c.terms) > 1:
                ctext = f"({ctext})"
            factors = []
            for i, e in enumerate(bos):
                if not e:
                    continue
                name = f"x{i + 1}" if i < m else f"y{i - m + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            for b in range(self.copies * 2 * n):
                if mask >> b & 1:
                    factors.append(f"f{b + 1}" if b < 2 * n else f"g{b - 2 * n + 1}")
            chunks.append(" ".join([ctext] + factors) if factors else ctext)
        return " + ".join(chunks)

    @classmethod
    def parse(cls, text: str, sig: Signature, copies: int = 1) -> "SuperPolynomial":
        terms = split_terms(text)
        if not terms:
            raise ValueError(f"empty polynomial: {text!r}")
        out = cls.zero(sig, copies)
        for term in terms:
            out = out + _parse_poly_term(term, sig, copies)
        return out

    def __repr__(self):
        return f"SuperPolynomial({self.to_text()!r})"


def _parse_poly_term(term: str, sig: Signature, copies: int) -> SuperPolynomial:
    m, n = sig.m, sig.n
    # "x1 - (1/2) x2" splits into "-(1/2) x2"; a leading "- " negates too
    negate = term[:1] == "-" and (term[1:2] == "(" or term[1:2].isspace())
    if negate:
        term = term[1:].lstrip()
    if term.startswith("("):
        depth, i = 0, 0
        for i, ch in enumerate(term):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                break
        else:
            raise ValueError(f"unclosed parenthesis in term {term!r}")
        coef = ExactScalar.parse(term[1:i])
        rest = term[i + 1:].split()
    else:
        bits = term.split()
        try:
            coef = ExactScalar.parse(bits[0])
            rest = bits[1:]
        except ValueError:
            # bare monomial like "x1^2 f1": coefficient 1, or -1 for "-x1^2 f1"
            coef, rest = ExactScalar.rational(1), bits
            if bits[0][:1] == "-" and bits[0][1:]:
                coef, rest = -coef, [bits[0][1:]] + bits[1:]
    bos = [0] * (copies * m)
    mask = 0
    poly = SuperPolynomial(sig, {(tuple(bos), 0): ExactScalar.rational(1)}, copies)
    for factor in rest:
        name, caret, e = factor.partition("^")
        try:
            kind, idx, e = name[0], int(name[1:]), int(e) if caret else 1
        except (IndexError, ValueError):
            raise ValueError(f"unknown factor {factor!r}") from None
        if kind == "x":
            k, copy = idx, 0
        elif kind == "y":
            k, copy = idx, 1
        elif kind == "f":
            k, copy = m + idx, 0
        elif kind == "g":
            k, copy = m + idx, 1
        else:
            raise ValueError(f"unknown variable {name!r}")
        if not 1 <= idx <= (m if kind in "xy" else 2 * n):
            raise ValueError(f"variable {name!r} not in R^{{{m}|{2 * n}}}")
        if copy == 1:
            if copies == 1:
                raise ValueError("y/g variables need the doubled algebra")
            if kind == "g":
                k = m + idx  # generator index inside its copy
        var = SuperPolynomial.coordinate(sig, k, copies, copy)
        poly = poly * var**e
    return poly * (-coef if negate else coef)


# -- coordinate polynomials --------------------------------------------------


@lru_cache(maxsize=256)
def r_squared(sig: Signature, copies: int = 1, copy: int = 0) -> SuperPolynomial:
    """R^2 = sum x_i^2 - sum f_{2k-1} f_{2k} on the chosen copy (the pair sign
    of ``metric_entries`` hard-coded for speed).  Built once per layout: the
    result is shared, which ``Sparse``'s never-mutated terms allow."""
    slots, pairs = _layout(sig, copies, copy)
    terms: Dict[TermKey, ExactScalar] = {}
    nb = copies * sig.m
    for i in slots:
        bos = [0] * nb
        bos[i] = 2
        terms[(tuple(bos), 0)] = ExactScalar.rational(1)
    zeros = (0,) * nb
    for pair in pairs:
        terms[(zeros, pair)] = ExactScalar.rational(-1)
    return SuperPolynomial(sig, terms, copies)


def mul_r2(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """R^2 f on the chosen copy by ``_r2_images``, with f's coefficients
    shared where a key is reached once.  Equal to ``r_squared(sig, copies,
    copy) * f``."""
    out: Dict[TermKey, ExactScalar] = {}
    for c, w, key in _r2_images(((c, 1, key) for key, c in f.terms.items()),
                                *_layout(f.sig, f.copies, copy)):
        p = c if w > 0 else -c
        out[key] = out[key] + p if key in out else p
    return f._with({k: c for k, c in out.items() if c})


def fermi_norm_poly(sig: Signature, copies: int = 1, copy: int = 0) -> SuperPolynomial:
    """nsq = sum_k f_{2k-1} f_{2k} as a polynomial (so R^2 = r^2 - nsq)."""
    zeros = (0,) * (copies * sig.m)
    return SuperPolynomial(sig, {
        (zeros, pair): ExactScalar.rational(1) for pair in _layout(sig, copies, copy)[1]
    }, copies)


def pairing(sig: Signature) -> SuperPolynomial:
    """The invariant two-point pairing <x,y> = sum_{ab} x_a g^{ab} y_b on the
    doubled algebra:

    sum_i x_i y_i - 1/2 sum_j (f_{2j-1} g_{2j} - f_{2j} g_{2j-1}).  Each x-bit
    lies below each y-bit, so no blade sign appears.
    """
    m = sig.m
    (xs, xb), (ys, yb) = _block(sig, 2, 0), _block(sig, 2, 1)
    terms: Dict[TermKey, ExactScalar] = {}
    for a, b, g in metric_entries(sig):
        bos = [0] * (2 * m)
        mask = 0
        if a <= m:
            bos[xs[a - 1]] = bos[ys[b - 1]] = 1
        else:
            mask = 1 << xb[a - m - 1] | 1 << yb[b - m - 1]
        terms[(tuple(bos), mask)] = ExactScalar.rational(g)
    return SuperPolynomial(sig, terms, 2)


# -- first-order operators ---------------------------------------------------


def dbos(f: SuperPolynomial, i: int, copy: int = 0) -> SuperPolynomial:
    """d/dx_i (1-based within the chosen copy)."""
    if not 1 <= i <= f.sig.m:
        raise ValueError(f"bosonic index {i} out of range")
    pos = _block(f.sig, f.copies, copy)[0][i - 1]
    out: Dict[TermKey, ExactScalar] = {}
    for (bos, mask), c in f.terms.items():
        e = bos[pos]
        if e:
            out[(bos[:pos] + (e - 1,) + bos[pos + 1:], mask)] = c * e
    return f._with(out)


def dferm(f: SuperPolynomial, j: int, copy: int = 0) -> SuperPolynomial:
    """Left derivative on anticommuting generator j (1-based within the copy)."""
    if not 1 <= j <= 2 * f.sig.n:
        raise ValueError(f"fermionic index {j} out of range")
    bit = _block(f.sig, f.copies, copy)[1][j - 1]
    return f._with({
        (bos, mask ^ (1 << bit)): c if derivative_sign(mask, bit) > 0 else -c
        for (bos, mask), c in f.terms.items()
        if mask >> bit & 1
    })


def mul_coordinate(f: SuperPolynomial, k: int, copy: int = 0) -> SuperPolynomial:
    """Left multiplication by coordinate X_k on the chosen copy."""
    return SuperPolynomial.coordinate(f.sig, k, f.copies, copy) * f


def _lowered(j: int) -> Tuple[int, int]:
    """(t, c) with d_{X^{m+j}} = c df_t: the inverse of the pair block, which
    maps the pair (2i-1, 2i) to (+2 df_{2i}, -2 df_{2i-1})."""
    return (j + 1, 2) if j % 2 else (j - 1, -2)


def _both_odd(sig: Signature, i: int, j: int) -> bool:
    """Whether X_i and X_j are both anticommuting, i.e. (-1)^{[i][j]} = -1."""
    return i > sig.m and j > sig.m


def nabla_lower(f: SuperPolynomial, k: int, copy: int = 0) -> SuperPolynomial:
    """Component k of the gradient (lower index), 1-based: bosonic slots are
    plain derivatives, anticommuting ones read ``_lowered``."""
    m, n = f.sig.m, f.sig.n
    if k <= m:
        return dbos(f, k, copy)
    if not 1 <= k - m <= 2 * n:
        raise ValueError(f"gradient slot {k} out of range")
    t, c = _lowered(k - m)
    return dferm(f, t, copy) * c


def nabla_raised(f: SuperPolynomial, k: int, copy: int = 0) -> SuperPolynomial:
    """Raised component k of the gradient, sum_b nabla_lower(f, b) g^{bk}:
    bosonic unchanged, fermionic -df_k."""
    if not 1 <= k <= f.sig.total_vars:
        raise ValueError(f"gradient slot {k} out of range")
    out = SuperPolynomial.zero(f.sig, f.copies)
    for b, a, g in metric_entries(f.sig):
        if a == k:
            out = out + nabla_lower(f, b, copy) * g
    return out


def gradient(f: SuperPolynomial, copy: int = 0) -> List[SuperPolynomial]:
    """All lower components (length m+2n)."""
    return [nabla_lower(f, k, copy) for k in range(1, f.sig.total_vars + 1)]


def raise_vector(comps: Sequence[SuperPolynomial]) -> List[SuperPolynomial]:
    """Raise a supervector given by its m+2n lower components (all on one
    signature and copy count): v^a = sum_b v_b g^{ba}."""
    if not comps:
        raise ValueError("a supervector needs m+2n components, got none")
    sig, copies = comps[0].sig, comps[0].copies
    if len(comps) != sig.total_vars:
        raise ValueError(f"a supervector on {sig} has {sig.total_vars} components, got {len(comps)}")
    out = [SuperPolynomial.zero(sig, copies)] * len(comps)
    for b, a, g in metric_entries(sig):
        out[a - 1] = out[a - 1] + comps[b - 1] * g
    return out


def vector_pairing(u: Sequence[SuperPolynomial], v: Sequence[SuperPolynomial]) -> SuperPolynomial:
    """<u, v> = sum_k u^k v_k, products taken in that order."""
    if len(u) != len(v):
        raise ValueError(f"supervectors of different lengths {len(u)} and {len(v)}")
    ur = raise_vector(u)
    out = SuperPolynomial.zero(ur[0].sig, ur[0].copies)
    for uk, vk in zip(ur, v):
        out = out + uk * vk
    return out


# -- second-order / composite operators -------------------------------------


Images = Iterable[Tuple[object, int, TermKey]]
Numerators = Dict[TermKey, Dict[int, int]]


def _denominator(f: SuperPolynomial) -> int:
    return lcm(*{q.denominator for c in f.terms.values() for q in c.terms.values()})


def _collect(images: Images, den: int | None = None, acc: Numerators | None = None) -> Numerators:
    """Sum the images (c, w, key'), w a nonzero int, into acc in ints, in the order of a
    term-by-term sum (a key that cancels keeps its place): c is a {pi exponent: int}
    dict, or with ``den`` an ExactScalar read over den once per run of one object."""
    acc, last = {} if acc is None else acc, None
    for c, w, image in images:
        if c is not last:
            last = c
            nums = c.items() if den is None else [(s, q.numerator * (den // q.denominator))
                                                   for s, q in c.terms.items()]
        d = acc.setdefault(image, {})
        for s, v in nums:
            v = d.get(s, 0) + w * v
            if v:
                d[s] = v
            else:
                del d[s]
    return acc


def _fractions(f: SuperPolynomial, acc: Numerators, den: int) -> SuperPolynomial:
    """The numerators over den as f's polynomial, each scalar built once."""
    scalar = _ZERO._with
    for d in acc.values():
        for s, v in d.items():
            d[s] = Fraction(v, den)
    return f._with({key: scalar(d) for key, d in acc.items() if d})


def _sweep(f: SuperPolynomial, images: Images) -> SuperPolynomial:
    """Sum the images (c, w, key') of f's coefficients c in ints: ``_collect`` in, ``_fractions`` out."""
    den = _denominator(f)
    return _fractions(f, _collect(images, den), den)


def _lap_images(terms: Iterable, slots: range, pairs: Tuple[int, ...]) -> Images:
    """Delta's rule on f's (key, c) terms: weight e(e-1) to bos - 2 e_i for each
    slot with exponent e >= 2, and +4 to mask without each full pair, as
    df_{2j-1} df_{2j} gives -1 whatever bits lie below it (hard-coded)."""
    for (bos, mask), c in terms:
        for i in slots:
            e = bos[i]
            if e > 1:
                yield c, e * (e - 1), (bos[:i] + (e - 2,) + bos[i + 1:], mask)
        for pair in pairs:
            if mask & pair == pair:
                yield c, 4, (bos, mask ^ pair)


def _r2_images(terms: Images, slots: range, pairs: Tuple[int, ...]) -> Images:
    """R^2's rule, for ``mul_r2`` and ``laplace_beltrami``: weight +1 to
    bos + 2 e_i for each slot, and -1 to mask | pair for each empty pair,
    which is even, so has no sign."""
    for c, w, (bos, mask) in terms:
        for i in slots:
            yield c, w, (bos[:i] + (bos[i] + 2,) + bos[i + 1:], mask)
        for pair in pairs:
            if not mask & pair:
                yield c, -w, (bos, mask | pair)


@lru_cache(maxsize=256)
def _layout(sig: Signature, copies: int, copy: int) -> Tuple[range, Tuple[int, ...]]:
    """The chosen copy's bosonic slots and pair masks 3 << b (cached: a call
    of ``_block`` and the masks would add about 1 us to a 12 us laplacian)."""
    slots, bits = _block(sig, copies, copy)
    return slots, tuple(3 << b for b in bits[::2])


def laplacian(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """sum_i d_i^2 - 4 sum_j df_{2j-1} df_{2j} on the chosen copy: one
    ``_sweep`` over ``_lap_images``."""
    return _sweep(f, _lap_images(f.terms.items(), *_layout(f.sig, f.copies, copy)))


def euler(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """Degree operator sum X_k d_{X_k}: multiplies each term by its degree."""
    deg = f._deg(copy)
    return f._with({key: c.scale(d) for key, c in f.terms.items() if (d := deg(key))})


def laplace_beltrami(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """R^2 lap - E(M - 2 + E), the spherical part of the Laplacian, as one
    ``_sweep`` of ``_lap_images`` sent on through ``_r2_images`` and the
    diagonal -d(M - 2 + d); ``laplace_beltrami_via_generators`` is the check.
    Keys and pi exponents follow a term-by-term sum of these images, which
    may order them unlike mul_r2(lap f) - (M - 2) E f - E E f."""
    slots, pairs = _layout(f.sig, f.copies, copy)
    deg, M = f._deg(copy), f.sig.superdim
    diag = ((c, -d * (M - 2 + d), key) for key, c in f.terms.items() if (d := deg(key)) * (M - 2 + d))
    return _sweep(f, [*_r2_images(_lap_images(f.terms.items(), slots, pairs), slots, pairs), *diag])


def osp_generator(f: SuperPolynomial, i: int, j: int, copy: int = 0,
                  cross: Tuple[int, int] | None = None) -> SuperPolynomial:
    """Rotation generator L_{ij} = X_i d_{X^j} - (-1)^{[i][j]} X_j d_{X^i}.

    Indices are 1-based in 1..m+2n.  ``d_{X^j}`` (derivative along the raised
    coordinate) is exactly the lower gradient component j.  With ``cross`` =
    (copy_i, copy_j) the two halves act on different copies, which gives the
    two-point invariance operators on the doubled algebra.
    """
    ci, cj = cross if cross is not None else (copy, copy)
    # first half lives entirely on copy ci, second half entirely on copy cj
    first = mul_coordinate(nabla_lower(f, j, ci), i, ci)
    second = mul_coordinate(nabla_lower(f, i, cj), j, cj)
    if _both_odd(f.sig, i, j):
        return first + second
    return first - second


def nabla_pair_with_x(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """<nabla, x f> = sum_k nabla^k (X_k f); equals (M + E) f."""
    out = SuperPolynomial.zero(f.sig, f.copies)
    for k in range(1, f.sig.total_vars + 1):
        out = out + nabla_raised(mul_coordinate(f, k, copy), k, copy)
    return out


def metric_entries(sig: Signature) -> List[Tuple[int, int, Fraction]]:
    """Nonzero entries (a, b, g^{ab}) of the contravariant metric, 1-based.

    Identity on the bosonic block; each fermionic pair contributes the
    antisymmetric 2x2 block with g^{2j-1+m, 2j+m} = -1/2.
    """
    m, n = sig.m, sig.n
    out = [(i, i, Fraction(1)) for i in range(1, m + 1)]
    for k in range(1, n + 1):
        out.append((m + 2 * k - 1, m + 2 * k, Fraction(-1, 2)))
        out.append((m + 2 * k, m + 2 * k - 1, Fraction(1, 2)))
    return out


def laplace_beltrami_via_generators(f: SuperPolynomial, copy: int = 0) -> SuperPolynomial:
    """Quadratic Casimir route: -1/2 sum_{ijkl} L_{ij} g^{jk} g^{il} L_{kl},
    contracted as in the module's Conventions block."""
    out = SuperPolynomial.zero(f.sig, f.copies)
    ent = metric_entries(f.sig)
    half = Fraction(-1, 2)
    for (j, k, gjk) in ent:
        for (i, l, gil) in ent:
            inner = osp_generator(f, k, l, copy)
            out = out + osp_generator(inner, i, j, copy) * (gjk * gil * half)
    return out
