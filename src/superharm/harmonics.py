"""Spherical harmonics: kernel bases, dimensions, Fischer blocks, reproducing kernel.

Degree-k harmonics are the kernel of the Laplacian restricted to homogeneous
degree k.  Everything here is exact: bases come from the harmonic
Cauchy-Kovalevskaya extension in the last boson x_m (``laplacian`` sweeps, no
matrix).  Fischer takes block j of f = sum_j R^{2j} H_{d-2j} as the harmonic
projection of lap^j f, by lap(R^{2j} H_k) = 2j (M + 2j + 2k - 2) R^{2j-2} H_k:

    H_k = sum_i a_i R^{2i} lap^{i+j} f / c_j,   k = d - 2j,
    a_i = prod_{t<=i} -1/(2t (M + 2k - 2t - 2)),   c_j = prod_{s<=j} 2s (M + 2k + 2s - 2),

summed by Horner in R^2 over f's integer numerators (lap's integer weights keep
their denominator), with one Fraction per result coefficient.  The reproducing
kernel comes from the homogenized Gegenbauer recurrence ``kernel_values``, the
one shared with the numeric kernels of the Mehler check
(``zonal._kernel_values``), run over exact polynomials and summed by Horner in
Rx^2 Ry^2 (two ``mul_r2`` sweeps a step).  The super-dimension M = m - 2n may
be any integer not in {0, -2, -4, ...}; those even nonpositive values break
both Fischer (a factor of a_i or c_j vanishes) and the kernel normalization
(sigma_M = 0), and raise UnsupportedSignatureError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Tuple

from .scalar import sphere_area
from .superpoly import (Signature, SuperPolynomial, TermKey, _collect, _denominator, _fractions,
                        _lap_images, _layout, _r2_images, laplacian, mul_r2, pairing, r_squared)


class UnsupportedSignatureError(ValueError):
    """Operation undefined at this super-dimension (M in -2N)."""


def _m_is_degenerate(M: int) -> bool:
    return M <= 0 and M % 2 == 0


# -- dimensions ---------------------------------------------------------------


def dim_polynomials(sig: Signature, k: int) -> int:
    """dim of the homogeneous degree-k component: sum_i C(2n,i) C(k-i+m-1, m-1)."""
    if k < 0:
        return 0
    m, n = sig.m, sig.n
    return sum(
        math.comb(2 * n, i) * math.comb(k - i + m - 1, m - 1)
        for i in range(min(k, 2 * n) + 1)
    )


def dim_harmonics(sig: Signature, k: int) -> int:
    """Dimension of the degree-k harmonics: the double binomial difference.

    Valid for every M (multiplication by R^2 is injective because m >= 1), so
    unlike the Fischer decomposition this needs no restriction on M.
    """
    if k < 0:
        return 0
    return dim_polynomials(sig, k) - dim_polynomials(sig, k - 2)


# -- harmonic bases -----------------------------------------------------------


def monomial_keys(sig: Signature, k: int) -> List[TermKey]:
    """All degree-k monomial keys, in a fixed deterministic order."""
    m, n = sig.m, sig.n
    out: List[TermKey] = []

    def bos_parts(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in bos_parts(total - first, slots - 1):
                yield (first,) + rest

    for mask in range(1 << (2 * n)):
        fdeg = mask.bit_count()
        if fdeg > k:
            continue
        for bos in bos_parts(k - fdeg, m):
            out.append((bos, mask))
    out.sort()
    return out


class HarmonicBasis:
    __slots__ = ("sig", "k", "elements")

    def __init__(self, sig: Signature, k: int, elements: List[SuperPolynomial]):
        self.sig, self.k, self.elements = sig, k, elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _rref_nullspace(rows: List[Dict[int, Fraction]], ncols: int) -> List[List[Fraction]]:
    """Exact nullspace of a sparse rational matrix, deterministic pivoting: the
    tests' reference for ``harmonic_basis``; ``bench/tracer.py`` wraps it by name."""
    # dense elimination; desk-scale matrices only
    mat = [[r.get(c, Fraction(0)) for c in range(ncols)] for r in rows]
    pivots: List[int] = []
    rix = 0
    for col in range(ncols):
        sel = None
        for rr in range(rix, len(mat)):
            if mat[rr][col] != 0:
                sel = rr
                break
        if sel is None:
            continue
        mat[rix], mat[sel] = mat[sel], mat[rix]
        pv = mat[rix][col]
        mat[rix] = [v / pv for v in mat[rix]]
        for rr in range(len(mat)):
            if rr != rix and mat[rr][col] != 0:
                f = mat[rr][col]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[rix])]
        pivots.append(col)
        rix += 1
        if rix == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][fc]
        basis.append(v)
    return basis


def harmonic_basis(sig: Signature, k: int) -> HarmonicBasis:
    """Exact basis of the degree-k harmonics: for each monomial mu with x_m
    exponent a <= 1, H_mu = sum_j (-1)^j a!/(a+2j)! x_m^{2j} lap^j mu, the one
    harmonic whose part of x_m-degree <= 1 is mu (lap^j mu = lap'^j mu, as
    a <= 1).  No constant depends on M, so this holds at every M."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    last = sig.m - 1
    elems = []
    for mu in [key for key in monomial_keys(sig, k) if key[0][last] <= 1]:
        term, terms, j = SuperPolynomial(sig, {mu: Fraction(1)}), {}, 0
        while term:
            w = Fraction((-1) ** j, math.factorial(mu[0][last] + 2 * j))  # a! = 1
            for (bos, mask), c in term.terms.items():
                terms[bos[:last] + (bos[last] + 2 * j,), mask] = c * w
            term, j = laplacian(term), j + 1
        elems.append(term._with(dict(sorted(terms.items()))))
    return HarmonicBasis(sig, k, elems)


# -- Fischer decomposition ----------------------------------------------------


def fischer_decompose(f: SuperPolynomial) -> List[Tuple[int, SuperPolynomial]]:
    """Write homogeneous f of degree d as sum_j R^{2j} H_{d-2j}, H harmonic.

    Returns [(j, H_{d-2j})] in ascending j, zero blocks dropped.  Exact.  Needs
    M not in {0, -2, -4, ...}: a_i or c_j of the module docstring vanishes there.
    """
    sig = f.sig
    if _m_is_degenerate(sig.superdim):
        raise UnsupportedSignatureError(
            f"Fischer decomposition breaks down at M = {sig.superdim}"
        )
    if f.is_zero:
        return []
    d = f.degree()
    if f.copies != 1 or min(map(f._deg(None), f.terms)) != d:
        raise ValueError("fischer_decompose needs a homogeneous single-copy polynomial")
    if d <= 1:
        return [(0, f)]
    M, den, (slots, pairs) = sig.superdim, _denominator(f), _layout(sig, f.copies, 0)
    laps = [_collect(((c, 1, key) for key, c in f.terms.items()), den)]
    for _ in range(d // 2):  # lap^t f for t <= d/2, all over den
        laps.append(_collect(_lap_images(laps[-1].items(), slots, pairs)))
    blocks = []
    for j in range(d // 2 + 1):  # a_i / c_j = (-1)^i / P_i, each P_i dividing the last
        k = d - 2 * j
        P = [math.prod(2 * s * (M + 2 * k + 2 * s - 2) for s in range(1, j + 1))]
        for t in range(1, d // 2 - j + 1):
            P.append(P[-1] * 2 * t * (M + 2 * k - 2 * t - 2))
        acc: Dict[TermKey, Dict[int, int]] = {}
        for i in range(len(P) - 1, -1, -1):  # Horner in R^2 from the top i down
            acc = _collect(chain(_r2_images(((c, 1, key) for key, c in acc.items()), slots, pairs),
                                 ((c, (-1) ** i * (P[-1] // P[i]), key) for key, c in laps[i + j].items())))
        if H := _fractions(f, acc, den * P[-1]):
            blocks.append((j, H))
    return blocks


def fischer_reconstruct(sig: Signature, blocks: List[Tuple[int, SuperPolynomial]]) -> SuperPolynomial:
    """sum_j R^{2j} H_j by ``r_squared`` powers, not ``fischer_decompose``'s
    ``_r2_images`` sweeps: the round trip through both is an independent check
    only while its two sides multiply by R^2 by different code."""
    R2 = r_squared(sig)
    out = SuperPolynomial.zero(sig)
    for j, H in blocks:
        out = out + R2**j * H
    return out


# -- reproducing kernel -------------------------------------------------------


def reproducing_kernel(sig: Signature, k: int) -> SuperPolynomial:
    """The two-point kernel F_k(x, y) on the doubled algebra.

    Closed form: (2k+M-2)/(M-2) * (1/sigma_M) * (RxRy)^k C_k^{(M-2)/2}(<x,y>/RxRy),
    homogenized as sum_p c_p <x,y>^p (Rx^2 Ry^2)^{(k-p)/2}, with c_p exact from
    ``kernel_values`` on the polynomials in t = x1.  At M = 2 the prefactor is
    formally singular for k >= 1, and the standard resolution
    lim_{lam->0} ((k+lam)/lam) C_k^lam = 2 T_k replaces it.
    """
    M = sig.superdim
    line = Signature(1, 0)
    one = SuperPolynomial.constant(line, 1)
    Fk = kernel_values(M, k, SuperPolynomial.coordinate(line, 1), one, one, sphere_area(M))[k]
    t = pairing(sig)
    coeff = {p: c for ((p,), _), c in Fk.terms.items()}
    out = SuperPolynomial.zero(sig, 2)  # sum_q c_{k-2q} t^{k-2q} u^q by Horner in u
    for p in range(k % 2, k + 1, 2):
        out = mul_r2(mul_r2(out, 0), 1)
        if p in coeff:
            out = out + t**p * coeff[p]
    return out


def kernel_values(M: int, K: int, t, u, one=1.0, sigma=None) -> list:
    """F_0 .. F_K given the invariants t = <x,y> and u = Rx^2 Ry^2, by the
    homogenized three-term recurrence, so u = 0 and negative-M cases cost
    nothing special.  t, u and their unit ``one`` may be floats or elements of
    an algebra with +, * and scaling by ints and Fractions; ``sigma`` is
    sigma_M in the same field (default: the float sphere area)."""
    if _m_is_degenerate(M):
        raise UnsupportedSignatureError(f"kernel normalization undefined at M = {M}")
    if sigma is None:
        sigma = sphere_area(M).to_float()
    out = [one * (1 / sigma)]
    if K == 0:
        return out
    if M == 2:
        tm, t0 = one, t  # homogenized Chebyshev: the M = 2 limit rule
        out.append(t0 * (2 / sigma))
        for _ in range(2, K + 1):
            tm, t0 = t0, t * t0 * 2 - u * tm
            out.append(t0 * (2 / sigma))
        return out
    cm, c0 = one, t * (M - 2)
    out.append(c0 * (Fraction(M, M - 2) / sigma))
    for i in range(2, K + 1):
        cm, c0 = c0, (t * c0 * (2 * i + M - 4) - u * cm * (i + M - 4)) * Fraction(1, i)
        out.append(c0 * (Fraction(2 * i + M - 2, M - 2) / sigma))
    return out
