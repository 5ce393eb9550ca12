"""The in-process workloads: seeded task rounds with independent-route checks.

A workload yields rounds.  A round holds a fixed multiset of task kinds and
sizes; the seed draws the polynomials, points and coefficients and the order
of the round.  Runs measure whole rounds, so every run times the same mix and
only the drawn inputs differ between seeds.

Each task is ``run`` (the timed call into the library) and ``check`` (an
independent route, timed outside the call) returning ``(ok, info)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List


@dataclass
class Task:
    kind: str
    sig: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    info: dict = field(default_factory=dict)


def label(sig) -> str:
    return f"R^{{{sig.m}|{2 * sig.n}}}"


def degenerate(M: int) -> bool:
    """Fischer, kernels and fundamental solutions are undefined at M in {0, -2, ...}."""
    return M <= 0 and M % 2 == 0


class Library:
    """The package modules, imported once so that traced rebinding is seen."""

    def __init__(self):
        import superharm
        from superharm import (grassmann, harmonics, integrate, radial, scalar,
                               schrodinger, superpoly, zonal)
        self.package = superharm
        self.scalar = scalar
        self.grassmann = grassmann
        self.superpoly = superpoly
        self.radial = radial
        self.harmonics = harmonics
        self.integrate = integrate
        self.zonal = zonal
        self.schrodinger = schrodinger


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def random_poly(lib, sig, rng, deg=4, nterms=6):
    """Sparse polynomial: up to ``nterms`` monomials of total degree <= deg."""
    terms = {}
    for _ in range(nterms):
        d = rng.randrange(deg + 1)
        mask = 0
        for bit in rng.sample(range(2 * sig.n), min(rng.randrange(d + 1), 2 * sig.n)):
            mask |= 1 << bit
        bos = [0] * sig.m
        for _ in range(d - bin(mask).count("1")):
            bos[rng.randrange(sig.m)] += 1
        terms[(tuple(bos), mask)] = _coef(rng)
    return lib.superpoly.SuperPolynomial(sig, terms)


def random_homogeneous(lib, sig, rng, deg, nterms=6):
    keys = lib.harmonics.monomial_keys(sig, deg)
    terms = {keys[rng.randrange(len(keys))]: _coef(rng) for _ in range(nterms)}
    return lib.superpoly.SuperPolynomial(sig, terms)


def shaped_homogeneous(lib, sig, rng, deg, nterms=6):
    """Homogeneous polynomial whose monomial shapes are fixed per (sig, deg):
    the seed permutes the bosonic variables and draws the coefficients.

    Fischer's cost is invariant under permuting bosonic variables but varies
    several-fold between shapes, so fixing the shapes keeps every run of a
    big-operand round equally expensive while its inputs still differ.
    """
    shapes = random.Random(f"shapes {sig.m} {sig.n} {deg}")
    keys = lib.harmonics.monomial_keys(sig, deg)
    perm = rng.sample(range(sig.m), sig.m)
    terms = {}
    for _ in range(nterms):
        bos, mask = keys[shapes.randrange(len(keys))]
        terms[(tuple(bos[p] for p in perm), mask)] = _coef(rng)
    return lib.superpoly.SuperPolynomial(sig, terms)


def _zero(value) -> tuple:
    return (value.is_zero, {})


# -- exact-small ----------------------------------------------------------------

SMALL_SIGS = ((2, 1), (3, 1), (2, 2), (4, 1))


def exact_small_round(lib, rng: random.Random, small: bool = False) -> List[Task]:
    """One task of every kind on every signature where the kind is defined."""
    sp, itg = lib.superpoly, lib.integrate
    tasks = []
    for m, n in SMALL_SIGS:
        sig = sp.Signature(m, n)
        M, lab = sig.superdim, label(sig)
        R2 = sp.r_squared(sig)

        f = random_poly(lib, sig, rng)
        tasks.append(Task(
            "sl2-norm-laplacian", lab,
            lambda f=f, sig=sig: sp.laplacian(sp.r_squared(sig) * f) - sp.r_squared(sig) * sp.laplacian(f),
            lambda v, f=f, M=M: _zero(v - sp.euler(f) * 4 - f * Fraction(2 * M))))
        f = random_poly(lib, sig, rng)
        tasks.append(Task(
            "sl2-laplacian-euler", lab,
            lambda f=f: sp.laplacian(sp.euler(f)) - sp.euler(sp.laplacian(f)),
            lambda v, f=f: _zero(v - sp.laplacian(f) * 2)))
        f = random_poly(lib, sig, rng)
        tasks.append(Task(
            "sl2-norm-euler", lab,
            lambda f=f, sig=sig: sp.euler(sp.r_squared(sig) * f) - sp.r_squared(sig) * sp.euler(f),
            lambda v, f=f, R2=R2: _zero(v - R2 * f * 2)))
        f = random_poly(lib, sig, rng)
        tasks.append(Task(
            "laplace-beltrami", lab,
            lambda f=f: sp.laplace_beltrami(f),
            lambda v, f=f: _zero(v - sp.laplace_beltrami_via_generators(f))))
        f = random_poly(lib, sig, rng)
        tasks.append(Task(
            "pizzetti-radius", lab,
            lambda f=f, sig=sig: itg.pizzetti(sp.r_squared(sig) * f),
            lambda v, f=f: _zero(v - itg.pizzetti(f))))
        f = random_poly(lib, sig, rng)
        i, j = rng.sample(range(1, sig.total_vars + 1), 2)
        tasks.append(Task(
            "pizzetti-rotation", lab,
            lambda f=f, i=i, j=j: itg.pizzetti(sp.osp_generator(f, i, j)),
            lambda v: _zero(v)))
        k = rng.randrange(5)
        l = rng.randrange(min(k, 2) + 1)
        tasks.append(Task(
            "funk-hecke-monomial", lab,
            lambda M=M, l=l, k=k: lib.zonal.funk_hecke_alpha_monomial(M, l, k),
            lambda v, sig=sig, l=l, k=k, pick=rng.random(): _funk_hecke_direct(lib, sig, l, k, v, pick)))
        if degenerate(M):
            continue
        f = random_homogeneous(lib, sig, rng, rng.randrange(1, 6))
        tasks.append(Task(
            "fischer", lab,
            lambda f=f: lib.harmonics.fischer_decompose(f),
            lambda blocks, f=f: _fischer_ok(lib, f, blocks)))
        l = rng.randrange(1, 4)
        tasks.append(Task(
            "fundsol-chain", lab,
            lambda sig=sig, l=l: _fundsol_chain(lib, sig, l),
            lambda p, sig=sig, l=l: _fundsol_ok(lib, sig, l, p)))
    rng.shuffle(tasks)
    return tasks


def _funk_hecke_direct(lib, sig, l, k, alpha, pick):
    """alpha_{M,l}[t^k] against the direct sphere integral of <x,y>^k H_l(x)."""
    sp = lib.superpoly
    basis = lib.harmonics.harmonic_basis(sig, l).elements
    H = basis[int(pick * len(basis))]
    direct = lib.integrate.pizzetti(sp.pairing(sig) ** k * H.embed_doubled(), copy=0)
    if (k + l) % 2 or k < l:
        return (direct.is_zero and alpha.is_zero, {})
    closed = sp.r_squared(sig, 2, 1) ** ((k - l) // 2) * H.to_y_copy() * alpha
    return ((direct - closed).is_zero, {})


def _fischer_ok(lib, f, blocks):
    h, sp = lib.harmonics, lib.superpoly
    ok = all(sp.laplacian(H).is_zero for _, H in blocks)
    ok = ok and (h.fischer_reconstruct(f.sig, blocks) - f).is_zero
    return (ok, {})


def _fundsol_chain(lib, sig, l):
    p = lib.radial.fundamental_solution(sig, l).profile
    for _ in range(l):
        p = lib.radial.laplacian_profile(p, sig.superdim)
    return p


def _fundsol_ok(lib, sig, l, p):
    ok = p.is_zero
    if sig.superdim % 2:
        lhs, rhs = lib.radial.fundamental_normalization_check(sig, l)
        ok = ok and (lhs - rhs).is_zero
    return (ok, {})


# -- exact-large ----------------------------------------------------------------

# Sizes run from ~30 ms to ~1 s here, spaced so that no quantile of a round
# falls into a wide gap between two sizes.  Harmonic bases on R^{4|4} at
# k = 4, 5, 6 and Fischer of a degree-12 monomial on R^{6|4} are rows of the
# ROADMAP baseline.
BASIS_SIZES = [((4, 2), 4), ((4, 2), 5), ((4, 2), 6), ((3, 1), 6), ((3, 1), 7), ((3, 1), 8),
               ((5, 1), 4), ((5, 1), 5), ((6, 1), 4), ((2, 2), 6)]
# (signature, degree, terms)
FISCHER_SIZES = [((6, 2), 8, 6), ((6, 2), 10, 6), ((6, 2), 12, 1), ((5, 1), 9, 6), ((5, 1), 11, 6),
                 ((3, 1), 10, 6), ((3, 1), 12, 6), ((3, 1), 14, 6)]
KERNEL_SIZES = [((3, 1), 5), ((3, 1), 6), ((3, 1), 7), ((4, 1), 5)]
WARM_UP = ([((3, 1), 3), ((5, 1), 3)], [((6, 2), 4, 6), ((3, 1), 5, 6)], [((3, 1), 2)])


def exact_large_round(lib, rng: random.Random, small: bool = False) -> List[Task]:
    sp, h = lib.superpoly, lib.harmonics
    bases, fischers, kernels = WARM_UP if small else (BASIS_SIZES, FISCHER_SIZES, KERNEL_SIZES)
    tasks = []
    for (m, n), k in bases:
        sig = sp.Signature(m, n)
        tasks.append(Task(
            "harmonic-basis", label(sig),
            lambda sig=sig, k=k: h.harmonic_basis(sig, k),
            lambda b, sig=sig, k=k: _basis_ok(lib, sig, k, b), {"k": k}))
    for (m, n), d, nterms in fischers:
        sig = sp.Signature(m, n)
        f = shaped_homogeneous(lib, sig, rng, d, nterms)
        tasks.append(Task(
            "fischer", label(sig),
            lambda f=f: h.fischer_decompose(f),
            lambda blocks, f=f: _fischer_ok(lib, f, blocks), {"degree": d}))
    for (m, n), k in kernels:
        sig = sp.Signature(m, n)
        tasks.append(Task(
            "reproducing-kernel", label(sig),
            lambda sig=sig, k=k: h.reproducing_kernel(sig, k),
            lambda F: (sp.laplacian(F, 0).is_zero and sp.laplacian(F, 1).is_zero, {}),
            {"k": k}))
    rng.shuffle(tasks)
    return tasks


def _basis_ok(lib, sig, k, basis):
    ok = len(basis) == lib.harmonics.dim_harmonics(sig, k)
    ok = ok and all(lib.superpoly.laplacian(H).is_zero for H in basis)
    return (ok, {})


# -- numeric --------------------------------------------------------------------

MEHLER_SIGS = ((3, 1), (4, 1), (5, 1))     # M = 1, 2 (the limit rule), 3
MEHLER_TOL = 1e-10       # residual of the Bessel-kernel expansion, K <= 40
AGREE_TOL = 1e-9         # two truncated kernel series, K = 7, J = 35
ALPHA_TOL = 1e-10        # quadrature transform against exact monomial alphas
HANKEL_RTOL = 1e-9       # Hankel transform of exp(a) against the closed form
LEVEL_TOL = 1e-6         # FD oscillator levels against 2j + k + M/2
# (m, n, k): sectors M + 2k >= 1, including negative M
OSC_SECTORS = ((3, 0, 0), (3, 1, 1), (2, 2, 2), (1, 1, 1))


def numeric_round(lib, rng: random.Random, small: bool = False) -> List[Task]:
    sp, z, rad = lib.superpoly, lib.zonal, lib.radial
    tasks = []
    for m, n in MEHLER_SIGS:
        sig = sp.Signature(m, n)
        x = [rng.uniform(-0.8, 0.8) for _ in range(m)]
        y = [rng.uniform(-0.8, 0.8) for _ in range(m)]
        tasks.append(Task(
            "mehler-bessel", label(sig),
            lambda sig=sig, x=x, y=y: z.mehler_bessel_check(sig, x, y, K=40, m2_limit=True),
            lambda r: (r < MEHLER_TOL, {"residual": r})))
        x = [rng.uniform(-0.8, 0.8) for _ in range(m)]
        y = [rng.uniform(-0.8, 0.8) for _ in range(m)]
        K, J = (7, 35) if not small else (2, 8)
        tasks.append(Task(
            "mehler-agree", label(sig),
            lambda sig=sig, x=x, y=y, K=K, J=J: z.mehler_expansions_agree(sig, x, y, K=K, J=J),
            lambda r: (r < AGREE_TOL, {"residual": r})))
    for M in (2, 3, 4, 5):
        coeffs = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(5)]
        l = rng.randrange(3)
        u = rng.uniform(0.4, 1.0)
        tasks.append(Task(
            "funk-hecke-numeric", f"M={M}",
            lambda M=M, l=l, c=coeffs, u=u: z.funk_hecke_alpha_numeric(
                M, l, z.ZonalProfile.polynomial(c), u, 1),
            lambda got, M=M, l=l, c=coeffs, u=u: _alphas_ok(lib, M, l, c, u, got)))
    for _ in range(4):
        M = rng.randrange(1, 6)
        k = rng.randrange(1 if M == 1 else 0, 3)    # the order must exceed -1/2
        nu = k + M / 2.0 - 1.0
        a = Fraction(rng.randrange(1, 9), 4)
        u = rng.uniform(0.2, 2.5)
        tasks.append(Task(
            "hankel", f"M={M}",
            lambda nu=nu, a=a, u=u: z.hankel(nu, rad.RadialProfile.exponential(a), u),
            lambda v, nu=nu, a=a, u=u: _hankel_ok(nu, a, u, v)))
    schr = lib.schrodinger
    osc = rad.RadialProfile.polynomial([Fraction(0), Fraction(1, 2)])
    for m, n, k in OSC_SECTORS:
        sig = sp.Signature(m, n)
        count = rng.randrange(2, 5)
        tasks.append(Task(
            "oscillator-fd", f"{label(sig)} k={k}",
            lambda sig=sig, k=k, count=count: schr.solve_numeric(
                schr.reduce(sig, osc, k), schr.GridSpec(r_max=12.0, nodes=1500), count=count),
            lambda res, sig=sig, k=k: _levels_ok(sig, k, res)))
    rng.shuffle(tasks)
    return tasks


def _alphas_ok(lib, M, l, coeffs, u, got):
    """Value and first u-derivative against sum_k c_k alpha_{M,l}[t^k] u^k."""
    worst = 0.0
    for der in range(2):
        want = 0.0
        for k, c in enumerate(coeffs):
            al = lib.zonal.funk_hecke_alpha_monomial(M, l, k)
            if al.is_zero or not c:
                continue
            fall = 1.0
            for p in range(der):
                fall *= k / 2.0 - p
            want += float(c) * al.to_float() * fall * (u * u) ** (k / 2.0 - der)
        worst = max(worst, abs(got[der] - want) / max(1.0, abs(want)))
    return (worst < ALPHA_TOL, {"residual": worst})


def _hankel_ok(nu, a, u, value):
    """Int_0^inf e^{-a r^2} J_nu(ru)/(ru)^nu r^{2nu+1} dr = e^{-u^2/4a} / (2a)^{nu+1}."""
    a = float(a)
    exact = math.exp(-u * u / (4 * a)) / (2 * a) ** (nu + 1)
    dev = abs(value - exact) / exact
    return (dev < HANKEL_RTOL, {"residual": dev})


def _levels_ok(sig, k, results):
    if not results:
        return (False, {"why": "no levels returned"})
    dev = max(abs(E - (2 * j + k + sig.superdim / 2.0)) for j, (E, _) in enumerate(results))
    return (dev < LEVEL_TOL, {"level_dev": dev})
