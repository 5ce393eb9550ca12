"""Seeded property-check suites behind the ``verify-all`` command.

Each suite replays a compressed form of one module's invariant battery on
freshly drawn random inputs and reports structured pass/fail rows.  All
randomness comes from per-suite generators derived from (seed, suite name),
so the full report is a pure function of the seed: a fixed seed gives
bit-identical output across runs and machines, which the command-line
front end relies on.
"""

import math
import random
import warnings
from fractions import Fraction
from typing import Callable, Dict, List

from . import zonal
from .harmonics import (
    dim_harmonics,
    fischer_decompose,
    fischer_reconstruct,
    harmonic_basis,
    monomial_keys,
    reproducing_kernel,
)
from .integrate import DegenerateDegreeError, pizzetti, superball_poly
from .radial import (
    NumericProfile,
    RadialProfile,
    RadialSuperfunction,
    fundamental_normalization_check,
    fundamental_solution,
    laplacian_profile,
    radial_expand,
    radial_power,
)
from .scalar import (
    ExactScalar,
    bessel_profile,
    gamma_exact,
    pochhammer,
    recip_gamma,
    sphere_area,
)
from .schrodinger import (
    GridSpec,
    oscillator_level_count,
    oscillator_spectrum,
    reduce as reduce_problem,
    solve_numeric,
)
from .superpoly import (
    Signature,
    SuperPolynomial,
    dferm,
    euler,
    fermi_norm_poly,
    gradient,
    laplace_beltrami,
    laplace_beltrami_via_generators,
    laplacian,
    nabla_pair_with_x,
    osp_generator,
    pairing,
    r_squared,
    vector_pairing,
)

Check = Dict[str, object]
Suite = Callable[[random.Random], List[Check]]


def _row(check: str, passed: bool, detail: str = "") -> Check:
    return {"check": check, "passed": bool(passed), "detail": detail}


def _fmt(x: float) -> str:
    return format(float(x), ".3e")


def _random_poly(sig, rnd, deg=4, nterms=5, copies=1):
    p = SuperPolynomial.zero(sig, copies)
    nb = copies * sig.m
    for _ in range(nterms):
        bos = [0] * nb
        for _ in range(rnd.randrange(deg + 1)):
            bos[rnd.randrange(nb)] += 1
        mask = rnd.randrange(1 << (copies * 2 * sig.n))
        c = Fraction(rnd.randrange(-4, 5))
        if c:
            p = p + SuperPolynomial(sig, {(tuple(bos), mask): c}, copies)
    return p


def _random_homogeneous(sig, rnd, deg, nterms=6):
    keys = monomial_keys(sig, deg)
    p = SuperPolynomial.zero(sig)
    for _ in range(nterms):
        key = keys[rnd.randrange(len(keys))]
        c = Fraction(rnd.randrange(-4, 5))
        if c:
            p = p + SuperPolynomial(sig, {key: c})
    return p


def _even_part(f):
    out = SuperPolynomial.zero(f.sig, f.copies)
    for (bos, mask), c in f.terms.items():
        if bin(mask).count("1") % 2 == 0:
            out = out + SuperPolynomial(f.sig, {(bos, mask): c}, f.copies)
    return out


# -- per-module suites --------------------------------------------------------


def _suite_scalar(rnd: random.Random) -> List[Check]:
    rows = []
    zs = [Fraction(k, 2) for k in range(-7, 8) if k != 0]
    ok = all(recip_gamma(z + 1) == recip_gamma(z) * (Fraction(1) / z) for z in zs)
    rows.append(_row("recip-gamma-recurrence", ok, f"{len(zs)} half-integer points"))

    ok = True
    for a in (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        for j in range(5):
            ok = ok and gamma_exact(a + j) == gamma_exact(a) * pochhammer(a, j)
    rows.append(_row("pochhammer-vs-gamma", ok, "a in {1/2,3/2,2,5/2}, j <= 4"))

    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
        got = bessel_profile(nu, 1e-12)
        want = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
        worst = max(worst, abs(got - want) / abs(want))
    rows.append(_row("bessel-small-argument", worst < 1e-8, f"max rel err {_fmt(worst)}"))
    return rows


def _suite_grassmann(rnd: random.Random) -> List[Check]:
    # the Grassmann algebra as the purely odd polynomials on R^{1|2n}
    rows = []

    def draw(sig, parity=None):
        terms = {}
        count = 0
        while count < 4:
            mask = rnd.randrange(1 << (2 * sig.n))
            if parity is not None and bin(mask).count("1") % 2 != parity:
                continue
            c = rnd.randrange(-4, 5)
            if c:
                key = ((0,), mask)
                terms[key] = terms.get(key, ExactScalar()) + ExactScalar.rational(c)
            count += 1
        return SuperPolynomial(sig, terms)

    ok_assoc = ok_comm = ok_der = ok_ber = ok_center = True
    trials = 0
    for n in (2, 3):
        sig = Signature(1, n)
        x2 = fermi_norm_poly(sig)
        top = ((0,), (1 << (2 * n)) - 1)
        for _ in range(4):
            trials += 1
            a, b, c = draw(sig), draw(sig), draw(sig)
            ok_assoc = ok_assoc and not ((a * b) * c - a * (b * c)).terms
            for pa in (0, 1):
                for pb in (0, 1):
                    ha, hb = draw(sig, pa), draw(sig, pb)
                    braided = ha * hb + hb * ha if pa * pb else ha * hb - hb * ha
                    ok_comm = ok_comm and not braided.terms
            j, k = 1 + rnd.randrange(2 * n), 1 + rnd.randrange(2 * n)
            anti = dferm(dferm(a, j), k) + dferm(dferm(a, k), j)
            ok_der = ok_der and not anti.terms
            ok_der = ok_der and not dferm(dferm(a, j), j).terms
            # the Berezin integral two ways: top coefficient, lap^n(a) / (4^n n!)
            lap_n = a
            for _ in range(n):
                lap_n = laplacian(lap_n)
            ok_ber = ok_ber and a.coeff(*top) * (4**n * math.factorial(n)) == lap_n.constant_term()
            ok_center = ok_center and not (x2 * a - a * x2).terms
    rows.append(_row("product-associativity", ok_assoc, f"{trials} random triples, n <= 3"))
    rows.append(_row("graded-commutativity", ok_comm, "homogeneous-parity pairs"))
    rows.append(_row("derivative-anticommutation", ok_der, "random second derivatives"))
    rows.append(_row("top-coefficient-vs-laplacian-power", ok_ber, "exact agreement"))
    rows.append(_row("fermi-norm-central", ok_center, "x'^2 commutes with random elements"))
    return rows


def _suite_operators(rnd: random.Random) -> List[Check]:
    sigs = [Signature(2, 1), Signature(3, 1), Signature(2, 2)]
    ok_a = ok_b = ok_c = ok_d = ok_e = ok_f = True
    trials = 0
    for sig in sigs:
        M = sig.superdim
        R2 = r_squared(sig)
        for _ in range(4):
            trials += 1
            f = _random_poly(sig, rnd)
            ok_a = ok_a and (
                laplacian(R2 * f) - R2 * laplacian(f) - euler(f) * 4 - f * Fraction(2 * M)
            ).is_zero
            ok_b = ok_b and (
                laplacian(euler(f)) - euler(laplacian(f)) - laplacian(f) * 2
            ).is_zero
            ok_c = ok_c and (R2 * euler(f) - euler(R2 * f) + R2 * f * 2).is_zero
            ok_d = ok_d and (nabla_pair_with_x(f) - euler(f) - f * Fraction(M)).is_zero
            ok_e = ok_e and (laplace_beltrami(f) - laplace_beltrami_via_generators(f)).is_zero
            for (i, j) in ((1, 2), (1, sig.total_vars), (sig.m + 1, sig.m + 2)):
                ok_f = ok_f and (
                    laplace_beltrami(osp_generator(f, i, j))
                    - osp_generator(laplace_beltrami(f), i, j)
                ).is_zero
    note = f"{trials} random polynomials over 3 signatures"
    return [
        _row("sl2-laplacian-norm-bracket", ok_a, note),
        _row("sl2-laplacian-euler-bracket", ok_b, note),
        _row("sl2-norm-euler-bracket", ok_c, note),
        _row("divergence-of-x", ok_d, note),
        _row("laplace-beltrami-from-rotations", ok_e, note),
        _row("laplace-beltrami-commutes-with-rotations", ok_f, note),
    ]


def _suite_harmonics(rnd: random.Random) -> List[Check]:
    rows = []
    ok = True
    for sig in (Signature(3, 1), Signature(2, 2)):
        M = sig.superdim
        for k in range(4):
            for H in harmonic_basis(sig, k):
                ok = ok and (laplace_beltrami(H) - H * Fraction(-k * (M - 2 + k))).is_zero
    rows.append(_row("tangential-laplacian-eigenvalue", ok, "k <= 3, incl. degenerate M"))

    ok = True
    for sig in (Signature(3, 1), Signature(2, 1), Signature(4, 2)):
        for k in range(5):
            # independent harmonics: their parts of x_m-degree <= 1 are distinct single monomials
            basis = harmonic_basis(sig, k).elements
            low = {tuple(key for key in H.terms if key[0][-1] <= 1) for H in basis if not laplacian(H)}
            ok = ok and len(basis) == len(low) == dim_harmonics(sig, k) and all(len(l) == 1 for l in low)
    rows.append(_row("dimension-formula-vs-kernel-rank", ok, "k <= 4 over 3 signatures"))

    ok = True
    for sig in (Signature(3, 1), Signature(4, 1)):
        for deg in range(5):
            f = _random_homogeneous(sig, rnd, deg)
            blocks = fischer_decompose(f)
            ok = ok and all(laplacian(H).is_zero for _, H in blocks)
            ok = ok and (fischer_reconstruct(sig, blocks) - f).is_zero
    rows.append(_row("fischer-round-trip", ok, "random homogeneous, degree <= 4"))

    ok = True
    sig = Signature(3, 1)
    for k in range(3):
        Fk = reproducing_kernel(sig, k)
        for l in range(3):
            for H in harmonic_basis(sig, l).elements[:2]:
                got = pizzetti(H.embed_doubled() * Fk, copy=0)
                want = H.to_y_copy() if k == l else SuperPolynomial.zero(sig, 2)
                ok = ok and (got - want).is_zero
    rows.append(_row("kernel-reproduces-harmonics", ok, "k,l <= 2 under the sphere functional"))
    return rows


def _suite_integrate(rnd: random.Random) -> List[Check]:
    sigs = [Signature(3, 1), Signature(2, 1), Signature(2, 2)]
    rows = []

    ok_r2 = ok_rot = True
    for sig in sigs:
        R2 = r_squared(sig)
        for _ in range(3):
            f = _random_poly(sig, rnd)
            ok_r2 = ok_r2 and (pizzetti(R2 * f) - pizzetti(f)).is_zero
            for (i, j) in ((1, 2), (1, sig.total_vars), (sig.m + 1, sig.m + 2)):
                ok_rot = ok_rot and pizzetti(osp_generator(f, i, j)).is_zero
    rows.append(_row("radius-collapse", ok_r2, "sphere functional absorbs R^2"))
    rows.append(_row("rotation-invariance", ok_rot, "rotation generators integrate to zero"))

    ok = True
    for sig in (Signature(3, 1), Signature(2, 2)):
        for k in range(3):
            for l in range(3):
                if k == l:
                    continue
                Hk = harmonic_basis(sig, k).elements[0]
                Hl = harmonic_basis(sig, l).elements[0]
                ok = ok and pizzetti(Hk * Hl).is_zero
    rows.append(_row("harmonic-orthogonality", ok, "distinct degrees k,l <= 2"))

    ok_i = ok_ii = True
    used = 0
    for sig in sigs:
        for _ in range(3):
            g = _random_poly(sig, rnd, deg=4)
            try:
                lhs = superball_poly(laplacian(g))
            except DegenerateDegreeError:
                continue
            used += 1
            ok_i = ok_i and (lhs - pizzetti(euler(g))).is_zero
        for _ in range(3):
            f = _even_part(_random_poly(sig, rnd, deg=3))
            g = _random_poly(sig, rnd, deg=3)
            pair = vector_pairing(gradient(f), gradient(g))
            try:
                lhs = superball_poly(pair)
                rhs = pizzetti(f * euler(g)) - superball_poly(f * laplacian(g))
            except DegenerateDegreeError:
                continue
            ok_ii = ok_ii and (lhs - rhs).is_zero
    rows.append(_row("ball-laplacian-vs-sphere-euler", ok_i, f"{used} admissible draws"))
    rows.append(_row("first-green-identity", ok_ii, "even first factor"))

    ok = True
    for sig in sigs + [Signature(1, 1)]:
        M = sig.superdim
        ok = ok and pizzetti(SuperPolynomial.constant(sig, 1)) == sphere_area(M)
        for k in (1, 2):
            for H in harmonic_basis(sig, k).elements[:2]:
                ok = ok and pizzetti(H).is_zero
    rows.append(_row("mean-value-property", ok, "incl. vanishing total area at even M <= 0"))
    return rows


def _suite_radial(rnd: random.Random) -> List[Check]:
    rows = []
    g = RadialProfile.exponential(Fraction(1, 2))
    h = RadialProfile.power(Fraction(3, 2))
    worst = 0.0
    for sig in (Signature(2, 1), Signature(2, 2)):
        for r in (0.6, 1.3):
            lhs = radial_expand(g * h, sig, r)
            rhs = radial_expand(g, sig, r) * radial_expand(h, sig, r)
            worst = max(worst, lhs.max_abs_diff(rhs))
    rows.append(_row("substitution-is-multiplicative", worst < 1e-12, f"max dev {_fmt(worst)}"))

    ok = True
    poly = RadialProfile.polynomial([Fraction(1), Fraction(-2), Fraction(1, 3)])
    for sig in (Signature(2, 1), Signature(2, 2)):
        hR2 = RadialSuperfunction(sig, poly).as_polynomial()
        for _ in range(3):
            f = _random_poly(sig, rnd)
            ok = ok and (laplace_beltrami(hR2 * f) - hR2 * laplace_beltrami(f)).is_zero
    rows.append(_row("radial-commutes-with-tangential-laplacian", ok, "polynomial profiles, exact"))

    worst = 0.0
    for sig in (Signature(2, 1), Signature(2, 2)):
        for (a, b) in ((Fraction(3, 2), Fraction(-1, 2)), (Fraction(2), Fraction(5, 2))):
            for r in (0.8, 1.7):
                lhs = radial_power(sig, a).expand(r) * radial_power(sig, b).expand(r)
                rhs = radial_power(sig, a + b).expand(r)
                worst = max(worst, lhs.max_abs_diff(rhs))
    rows.append(_row("radius-power-law", worst < 1e-12, f"max dev {_fmt(worst)}"))

    ok = True
    for sig in (Signature(3, 1), Signature(2, 1)):
        R2 = r_squared(sig)
        hR2 = SuperPolynomial.constant(sig, Fraction(2)) + R2 * Fraction(1, 3) + R2 * R2
        hat1 = Fraction(2) + Fraction(1, 3) + Fraction(1)
        for _ in range(3):
            gpoly = _random_poly(sig, rnd, deg=3)
            ok = ok and (pizzetti(hR2 * gpoly) - pizzetti(gpoly) * hat1).is_zero
    rows.append(_row("radial-factor-under-sphere-functional", ok, "profile value at radius 1"))

    ok = True
    notes = []
    for (sig, l) in ((Signature(3, 1), 1), (Signature(3, 1), 2), (Signature(4, 1), 1)):
        fs = fundamental_solution(sig, l)
        p = fs.profile
        for _ in range(l):
            p = laplacian_profile(p, sig.superdim)
        ok = ok and p.is_zero
        if sig.superdim % 2:
            lhs, rhs = fundamental_normalization_check(sig, l)
            ok = ok and lhs == rhs
            if (sig.m, sig.n, l) == (3, 1, 1):
                ok = ok and lhs == ExactScalar.rational(-2)
                notes.append("(3,1,1) constant -2")
    rows.append(_row("fundamental-solution-chain", ok, "; ".join(notes) or "ok"))

    # L_ij is a derivation, so L_ij h(R^2) = h'(R^2) L_ij R^2 = 0 for every profile
    ok = True
    for sig in (Signature(2, 1), Signature(3, 1), Signature(2, 2)):
        tv = sig.total_vars
        pairs = [(i, j) for i in range(1, tv + 1) for j in range(i, tv + 1)]
        for h in (RadialProfile.power(1), poly):
            p = RadialSuperfunction(sig, h).as_polynomial()
            ok = ok and all(osp_generator(p, i, j).is_zero for i, j in pairs)
        x1 = SuperPolynomial.coordinate(sig, 1)
        ok = ok and not all(osp_generator(x1, i, j).is_zero for i, j in pairs)
    rows.append(_row("osp-invariance-of-radial-functions", ok, "exact, all L_ij; x1 is moved"))
    return rows


def _suite_zonal(rnd: random.Random) -> List[Check]:
    rows = []
    ok = True
    for (m, n) in ((3, 1), (2, 1)):
        sig = Signature(m, n)
        t = pairing(sig)
        for k in range(4):
            for l in range(min(k, 2) + 1):
                if (k + l) % 2:
                    continue
                H = harmonic_basis(sig, l).elements[0]
                lhs = pizzetti(t**k * H.embed_doubled(), copy=0)
                rhs = zonal.funk_hecke_poly(sig, [Fraction(0)] * k + [Fraction(1)], H, l)
                ok = ok and (lhs - rhs).is_zero
    rows.append(_row("sphere-transform-vs-direct-integral", ok, "monomial kernels, exact"))

    worst = 0.0
    coeffs = [Fraction(1), Fraction(0), Fraction(2), Fraction(1)]
    phi = NumericProfile.polynomial(coeffs)
    for M in (2, 3, 4, 5):
        u = 0.5 + 0.5 * rnd.random()
        for l in (0, 1):
            got = zonal.funk_hecke_alpha_numeric(M, l, phi, u, 1)
            for der in range(2):
                want = 0.0
                for k, c in enumerate(coeffs):
                    al = zonal.funk_hecke_alpha_monomial(M, l, k)
                    if al.is_zero:
                        continue
                    fall = 1.0
                    for p in range(der):
                        fall *= k / 2.0 - p
                    want += float(c) * al.to_float() * fall * (u * u) ** (k / 2.0 - der)
                worst = max(worst, abs(got[der] - want))
    rows.append(_row("quadrature-transform-vs-exact", worst < 1e-10, f"max dev {_fmt(worst)}"))

    ok = True
    for (m, n) in ((3, 1), (2, 1)):
        sig = Signature(m, n)
        t = pairing(sig)
        for f in (t, t * t):
            for i in range(1, sig.total_vars + 1):
                for j in range(1, sig.total_vars + 1):
                    ok = ok and osp_generator(f, i, j, cross=(0, 1)).is_zero
    rows.append(_row("two-point-invariance", ok, "mixed rotations kill pairing powers"))

    sig = Signature(3, 1)
    x = [rnd.uniform(-0.8, 0.8) for _ in range(3)]
    y = [rnd.uniform(-0.8, 0.8) for _ in range(3)]
    res = zonal.mehler_expansions_agree(sig, x, y, K=18, J=60)
    rows.append(_row("kernel-series-two-forms", res < 1e-8, f"residual {_fmt(res)}"))
    return rows


def _suite_spectrum(rnd: random.Random) -> List[Check]:
    rows = []
    ok = True
    for sig in (Signature(3, 1), Signature(2, 2), Signature(1, 1)):
        for j in range(2):
            for k in range(2):
                ok = ok and zonal.oscillator_residual(sig, j, k).is_zero
    rows.append(_row("oscillator-eigenprofile-residual", ok, "exact, incl. negative M"))

    osc = RadialProfile.polynomial([Fraction(0), Fraction(1, 2)])
    prob = reduce_problem(Signature(3, 0), osc, k=0)
    res = solve_numeric(prob, GridSpec(r_max=12.0, nodes=1500), count=3)
    worst = max(abs(E - (2 * j + 1.5)) for j, (E, _) in enumerate(res))
    rows.append(_row("oscillator-numeric-levels", worst < 1e-6, f"max dev {_fmt(worst)}"))

    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sig in (Signature(3, 1), Signature(2, 2)):
            entries = oscillator_spectrum(sig, 3, 3)
            ok = ok and all(e.degeneracy == dim_harmonics(sig, e.k) for e in entries)
            for q in range(5):
                got, want = oscillator_level_count(sig, q)
                ok = ok and got == want
    rows.append(_row("degeneracy-bookkeeping", ok, "level counts match polynomial dimensions"))
    return rows


SUITES: Dict[str, Suite] = {
    "grassmann-algebra": _suite_grassmann,
    "harmonics-decomposition": _suite_harmonics,
    "integrate-pizzetti": _suite_integrate,
    "operators-sl2": _suite_operators,
    "radial-calculus": _suite_radial,
    "scalar-exact": _suite_scalar,
    "spectrum-reduction": _suite_spectrum,
    "zonal-transform": _suite_zonal,
}


def run_suite(name: str, seed: int = 7) -> Dict[str, object]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rnd = random.Random(f"{seed}:{name}")
    checks = SUITES[name](rnd)
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_all(seed: int = 7, names: List[str] | None = None) -> Dict[str, object]:
    """Run the named suites (all by default) seeded by ``seed``.  Every check
    uses its own fixed threshold, so the report carries none."""
    chosen = sorted(SUITES) if names is None else sorted(names)
    suites = [run_suite(name, seed) for name in chosen]
    return {
        "seed": seed,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
