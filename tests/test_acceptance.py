"""Acceptance gate: thirteen end-to-end checks, one reported line each.

Run with ``pytest tests/test_acceptance.py -s`` to see a ``criterion NN
PASS/FAIL`` line per check.  Every tolerance is pinned here; exact checks
demand zero residual in the rational-times-pi scalar arithmetic.  The random
draws are seeded so the gate is reproducible.
"""

import math
import random
import subprocess
import sys
import warnings
from fractions import Fraction

from superharm.harmonics import (
    dim_harmonics,
    dim_polynomials,
    fischer_decompose,
    fischer_reconstruct,
    harmonic_basis,
    monomial_keys,
)
from superharm.integrate import (
    DegenerateDegreeError,
    greens_check,
    pizzetti,
    reduce_integral,
    superball_poly,
)
from superharm.radial import (
    NumericProfile,
    RadialProfile,
    RadialSuperfunction,
    euler_profile,
    fundamental_normalization_check,
    fundamental_solution,
    laplacian_profile,
    radial_expand,
    radial_gradient,
)
from superharm.scalar import ExactScalar, bessel_j, laguerre_row, sphere_area
from superharm.schrodinger import (
    GridSpec,
    oscillator_spectrum,
    reduce as reduce_problem,
    solve_numeric,
)
from superharm.superpoly import (
    Signature,
    SuperPolynomial,
    euler,
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
from superharm import zonal as Z
from superharm.verify import _even_part, _random_homogeneous, _random_poly

SIGS_ALL = [Signature(m, n) for m in range(1, 5) for n in range(3)]
SIGS_NONDEGENERATE = [s for s in SIGS_ALL if s.superdim > 0 or s.superdim % 2]


def _report(num, desc, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num:02d} failed: {desc}"


_BASIS = {}


def _basis(sig, k):
    key = (sig.m, sig.n, k)
    if key not in _BASIS:
        _BASIS[key] = list(harmonic_basis(sig, k).elements)
    return _BASIS[key]


def test_criterion_01_operator_identities():
    """Laplacian of the norm square, the sl2 commutators, the pairing of the
    gradient with the coordinate vector, the two routes to the spherical
    operator, and its commuting with every rotation generator -- all with
    zero residual on 50 random polynomials per signature."""
    rnd = random.Random(101)
    ok = True
    for sig in SIGS_ALL:
        M = sig.superdim
        R2 = r_squared(sig)
        ok = ok and (laplacian(R2) - SuperPolynomial.constant(sig, 2 * M)).is_zero
        tv = sig.total_vars
        all_pairs = [(i, j) for i in range(1, tv + 1) for j in range(1, tv + 1)]
        for t in range(50):
            f = _random_poly(sig, rnd)
            lhs = laplacian(R2 * f) - R2 * laplacian(f)
            ok = ok and (lhs - euler(f) * 4 - f * (2 * M)).is_zero
            ok = ok and (laplacian(euler(f)) - euler(laplacian(f)) - laplacian(f) * 2).is_zero
            ok = ok and (R2 * euler(f) - euler(R2 * f) + R2 * f * 2).is_zero
            ok = ok and (nabla_pair_with_x(f) - euler(f) - f * M).is_zero
            ok = ok and (laplace_beltrami(f) - laplace_beltrami_via_generators(f)).is_zero
            if t == 0:
                pairs = all_pairs
            else:
                pairs = [all_pairs[rnd.randrange(len(all_pairs))] for _ in range(2)]
            for (i, j) in pairs:
                comm = laplace_beltrami(osp_generator(f, i, j)) - osp_generator(
                    laplace_beltrami(f), i, j
                )
                ok = ok and comm.is_zero
    _report(1, "operator identities, zero residual, 50 random polynomials per signature", ok)


def test_criterion_02_sphere_functional():
    """The sphere functional drops norm-square factors, kills every rotation
    generator image, and is orthogonal across distinct harmonic degrees --
    exactly."""
    rnd = random.Random(102)
    ok = True
    for sig in SIGS_ALL:
        R2 = r_squared(sig)
        for _ in range(25):
            f = _random_poly(sig, rnd)
            ok = ok and (pizzetti(R2 * f) - pizzetti(f)).is_zero
            i = 1 + rnd.randrange(sig.total_vars)
            j = 1 + rnd.randrange(sig.total_vars)
            ok = ok and pizzetti(osp_generator(f, i, j)).is_zero
    for sig in (Signature(3, 1), Signature(2, 1), Signature(2, 2), Signature(4, 2)):
        for k in range(5):
            for l in range(k):
                for Hk in _basis(sig, k)[:2]:
                    for Hl in _basis(sig, l)[:2]:
                        ok = ok and pizzetti(Hk * Hl).is_zero
    _report(2, "sphere functional: radial collapse, rotation invariance, orthogonality", ok)


def test_criterion_03_fischer_round_trip():
    """Every homogeneous polynomial of degree <= 6 splits into norm-square
    powers times harmonics and reassembles exactly; the dimensions of the
    blocks add up to the full homogeneous dimension."""
    rnd = random.Random(103)
    ok = True
    sigs = (Signature(3, 1), Signature(4, 1), Signature(1, 1), Signature(3, 2))
    for sig in sigs:
        for deg in range(4):
            for key in monomial_keys(sig, deg):
                f = SuperPolynomial(sig, {key: Fraction(1)})
                blocks = fischer_decompose(f)
                ok = ok and all(laplacian(H).is_zero for _, H in blocks)
                ok = ok and (fischer_reconstruct(sig, blocks) - f).is_zero
        for deg in range(4, 7):
            for _ in range(4):
                f = _random_homogeneous(sig, rnd, deg)
                blocks = fischer_decompose(f)
                ok = ok and all(laplacian(H).is_zero for _, H in blocks)
                ok = ok and (fischer_reconstruct(sig, blocks) - f).is_zero
        for k in range(7):
            total = sum(dim_harmonics(sig, k - 2 * j) for j in range(k // 2 + 1))
            ok = ok and total == dim_polynomials(sig, k)
    _report(3, "Fischer split/reassembly exact to degree 6, block dimensions add up", ok)


def test_criterion_04_dimension_formula():
    """The closed-form dimension count equals the rank of the constructed
    harmonic basis for every signature with m <= 4, n <= 2 and k <= 5."""
    ok = True
    for sig in SIGS_ALL:
        for k in range(6):
            ok = ok and dim_harmonics(sig, k) == len(_basis(sig, k))
    ok = ok and dim_harmonics(Signature(3, 1), 1) == 5
    ok = ok and dim_harmonics(Signature(3, 1), 2) == 12
    _report(4, "harmonic dimension formula matches constructed basis rank", ok)


def test_criterion_05_radial_calculus():
    """Substitution of the norm square is an algebra morphism, first- and
    second-order calculus factor through profile derivatives, the spherical
    operator commutes with radial multipliers, fractional radius powers
    multiply by adding exponents, and the sphere functional sees a radial
    factor as its value at radius one -- all exact."""
    ok = True
    sigs = (Signature(2, 1), Signature(3, 1), Signature(2, 2))
    ha = RadialProfile.polynomial([Fraction(1), Fraction(2)])
    hb = RadialProfile.polynomial([Fraction(0), Fraction(0), Fraction(1, 5)])
    hc = RadialProfile.polynomial([Fraction(2), Fraction(-1), Fraction(1, 3)])
    rnd = random.Random(105)
    for sig in sigs:
        pa = RadialSuperfunction(sig, ha).as_polynomial()
        pb = RadialSuperfunction(sig, hb).as_polynomial()
        pab = RadialSuperfunction(sig, ha * hb).as_polynomial()
        ok = ok and (pa * pb - pab).is_zero
        f = RadialSuperfunction(sig, hc).as_polynomial()
        rhs = RadialSuperfunction(sig, euler_profile(hc)).as_polynomial()
        ok = ok and (euler(f) - rhs).is_zero
        rhs = RadialSuperfunction(sig, laplacian_profile(hc, sig.superdim)).as_polynomial()
        ok = ok and (laplacian(f) - rhs).is_zero
        vec, prof = radial_gradient(hc, sig)
        profP = RadialSuperfunction(sig, prof).as_polynomial()
        g = gradient(f)
        for k in range(sig.total_vars):
            ok = ok and (g[k] - vec[k] * profP).is_zero
        for _ in range(3):
            q = _random_poly(sig, rnd, deg=3)
            ok = ok and (laplace_beltrami(f * q) - f * laplace_beltrami(q)).is_zero
    # fractional radius powers: R^a R^b = R^{a+b} at the profile level
    for a, b in ((Fraction(3, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(5, 2))):
        d = RadialProfile.power(a) * RadialProfile.power(b) - RadialProfile.power(a + b)
        ok = ok and d.is_zero
    # radial factor under the sphere functional: value at radius one
    hR2 = RadialProfile.polynomial([Fraction(2), Fraction(1, 3), Fraction(1)])
    h_at_one = ExactScalar.rational(Fraction(2) + Fraction(1, 3) + Fraction(1))
    for sig in sigs:
        hpoly = RadialSuperfunction(sig, hR2).as_polynomial()
        for _ in range(3):
            gpoly = _random_poly(sig, rnd, deg=3)
            ok = ok and (pizzetti(hpoly * gpoly) - pizzetti(gpoly) * h_at_one).is_zero
    _report(5, "radial calculus identities exact on symbolic profiles", ok)


def test_criterion_06_gaussian_all_branches():
    """The Gaussian integral equals pi^{M/2} on every branch.  It is the one
    closed-form Mellin moment, Gamma(s)/Gamma(s) = 1 at s = M/2, so every M
    here gives the exact value; a float result would have to agree within
    1e-10."""
    ok = True
    gauss = RadialProfile.exponential(Fraction(1))
    for (m, n) in ((3, 1), (2, 1), (1, 1), (2, 2), (1, 2), (3, 2)):
        sig = Signature(m, n)
        M = sig.superdim
        val = reduce_integral(gauss, sig)
        if isinstance(val, ExactScalar):
            ok = ok and (val - ExactScalar.pi_pow(M)).is_zero
        else:
            ok = ok and abs(val - math.pi ** (M / 2.0)) < 1e-10
    _report(6, "Gaussian integral equals pi^{M/2} on every branch", ok)


def test_criterion_07_fundamental_solutions():
    """The iterated-Laplacian kernels are annihilated by the right number of
    radial Laplacians (odd and even superdimension, the latter with
    logarithms), and the odd-dimension normalization chain reproduces the
    exact constants, in particular -2 for the first kernel at (3, 1)."""
    ok = True
    for (m, n, lmax) in ((3, 1, 3), (4, 1, 3), (1, 1, 2), (2, 0, 1), (4, 0, 2)):
        sig = Signature(m, n)
        for l in range(1, lmax + 1):
            p = fundamental_solution(sig, l).profile
            for _ in range(l):
                p = laplacian_profile(p, sig.superdim)
            ok = ok and p.is_zero
    for (m, n, l) in ((3, 1, 1), (3, 1, 2), (1, 2, 1), (1, 2, 2)):
        lhs, rhs = fundamental_normalization_check(Signature(m, n), l)
        ok = ok and (lhs - rhs).is_zero
    lhs, _ = fundamental_normalization_check(Signature(3, 1), 1)
    ok = ok and (lhs - ExactScalar.rational(-2)).is_zero
    _report(7, "fundamental solutions annihilated; odd-M normalization chain exact", ok)


def test_criterion_08_mean_value():
    """The sphere functional of a harmonic is its value at the origin times
    the total area -- exactly, for every signature including the degenerate
    ones where the area vanishes."""
    ok = True
    for sig in SIGS_ALL:
        sigma = sphere_area(sig.superdim)
        one = _basis(sig, 0)[0]
        origin = one.coeff((0,) * sig.m, 0)
        ok = ok and (pizzetti(one) - sigma * origin).is_zero
        for k in range(1, 5):
            for H in _basis(sig, k):
                ok = ok and pizzetti(H).is_zero
    _report(8, "mean value property exact on all signatures, degenerate included", ok)


def test_criterion_09_ball_boundary_identities():
    """Componentwise, the ball integral of a gradient equals the sphere
    integral against the coordinate vector, and both integration-by-parts
    identities hold -- with at least 50 admissible random polynomials per
    signature (degrees where the dimensional continuation has a pole are
    rejected and redrawn)."""
    rnd = random.Random(109)
    ok = True
    for sig in SIGS_ALL:
        good_grad = 0
        for _ in range(400):
            if good_grad >= 50:
                break
            f = _random_poly(sig, rnd, deg=3)
            try:
                lhs, rhs = greens_check(f)
            except DegenerateDegreeError:
                continue
            good_grad += 1
            ok = ok and all((a - b).is_zero for a, b in zip(lhs, rhs))
        ok = ok and good_grad >= 50

        good_first = 0
        for _ in range(400):
            if good_first >= 50:
                break
            g = _random_poly(sig, rnd, deg=4)
            try:
                lhs = superball_poly(laplacian(g))
            except DegenerateDegreeError:
                continue
            good_first += 1
            ok = ok and (lhs - pizzetti(euler(g))).is_zero
        ok = ok and good_first >= 50

        good_second = 0
        for _ in range(500):
            if good_second >= 50:
                break
            f = _even_part(_random_poly(sig, rnd, deg=3))
            g = _random_poly(sig, rnd, deg=3)
            paired = vector_pairing(gradient(f), gradient(g))
            try:
                lhs = superball_poly(paired)
                rhs = pizzetti(f * euler(g)) - superball_poly(f * laplacian(g))
            except DegenerateDegreeError:
                continue
            good_second += 1
            ok = ok and (lhs - rhs).is_zero
        ok = ok and good_second >= 50
    _report(9, "ball/boundary identities on >= 50 admissible draws per signature", ok)


def test_criterion_10_sphere_transform():
    """The zonal sphere transform agrees exactly with the direct functional
    for kernel degrees <= 6 against harmonics of degree <= 4; the quadrature
    route reproduces the exact coefficients within 1e-10 and the oscillatory
    kernel values within 1e-8."""
    ok = True
    for (m, n) in ((3, 1), (2, 1), (4, 2), (2, 2)):
        sig = Signature(m, n)
        t = pairing(sig)
        tk = {0: SuperPolynomial.constant(sig, 1, copies=2)}
        for k in range(1, 7):
            tk[k] = tk[k - 1] * t
        for k in range(7):
            for l in range(min(k, 4) + 1):
                if (k + l) % 2:
                    continue
                H = _basis(sig, l)[0]
                lhs = pizzetti(tk[k] * H.embed_doubled(), copy=0)
                rhs = Z.funk_hecke_poly(sig, [Fraction(0)] * k + [Fraction(1)], H, l)
                ok = ok and (lhs - rhs).is_zero
    coeffs = [Fraction(1), Fraction(0), Fraction(2), Fraction(1)]
    phi = NumericProfile.polynomial(coeffs)
    for M in (2, 3, 4, 5):
        for l in (0, 1, 2):
            got = Z.funk_hecke_alpha_numeric(M, l, phi, 0.8, 2)
            for der in range(3):
                want = 0.0
                for k, c in enumerate(coeffs):
                    al = Z.funk_hecke_alpha_monomial(M, l, k)
                    if al.is_zero:
                        continue
                    fall = 1.0
                    for p in range(der):
                        fall *= k / 2.0 - p
                    want += float(c) * al.to_float() * fall * 0.8 ** (k - 2 * der)
                ok = ok and abs(got[der] - want) < 1e-10
        for k in (0, 1, 2):
            got = Z.funk_hecke_alpha_numeric(M, k, NumericProfile.exp_i(1.0), 1.3, 0)[0]
            want = (
                1j ** k
                * (2 * math.pi) ** (M / 2)
                * 1.3 ** (1 - M / 2)
                * bessel_j(M / 2 + k - 1, 1.3)
            )
            ok = ok and abs(got - want) < 1e-8
    _report(10, "sphere transform: exact route and quadrature route agree", ok)


def test_criterion_11_bessel_expansions():
    """The Laguerre-times-exponential profiles are eigenfunctions of the
    Bessel transform within 1e-8 for j <= 3; the Bessel-kernel expansion of
    the oscillatory kernel closes within 1e-8 at ten random point pairs; the
    scalar two-variable Laguerre expansion closes within 1e-8 at the pinned
    samples."""
    ok = True
    nu = 1.5
    for j in range(4):
        psi = RadialProfile.laguerre_exp(j, Fraction(3, 2), Fraction(1, 2))
        for s in (0.0, 0.9, 2.2):
            got = Z.fourier_bessel(nu, psi, s)
            want = (-1) ** j * laguerre_row(j, nu, s)[j] * math.exp(-s / 2)
            ok = ok and abs(got - want) < 1e-8
    rnd = random.Random(111)
    sig = Signature(3, 1)
    for _ in range(10):
        x = [rnd.uniform(-0.8, 0.8) for _ in range(3)]
        y = [rnd.uniform(-0.8, 0.8) for _ in range(3)]
        res = Z.mehler_bessel_check(sig, x, y, K=40, tol=1e-8)
        ok = ok and res < 1e-8
    ok = ok and Z.hille_hardy_check(3, 0, 0.0, 0.0, J=60) < 1e-8
    ok = ok and Z.hille_hardy_check(3, 0, 1.0, 1.0, J=60) < 1e-8
    ok = ok and Z.hille_hardy_check(1, 2, 4.0, 0.25, J=80) < 1e-8
    _report(11, "Bessel-transform eigenfunctions and kernel expansions close", ok)


def test_criterion_12_spectra():
    """The numeric radial eigensolver reproduces the oscillator levels
    2j + k + M/2 within 1e-6 for M in {1, 3}, j <= 2, k <= 2; the tabulated
    degeneracies equal the harmonic dimensions; the attractive-potential
    levels come out within 1e-4."""
    ok = True
    osc = RadialProfile.polynomial([Fraction(0), Fraction(1, 2)])
    for sig in (Signature(3, 0), Signature(3, 1)):
        M = sig.superdim
        for k in range(3):
            prob = reduce_problem(sig, osc, k)
            res = solve_numeric(prob, GridSpec(r_max=13.0, nodes=2200), count=3)
            for j, (E, err) in enumerate(res):
                ok = ok and abs(E - (2 * j + k + M / 2.0)) < 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sig in (Signature(3, 1), Signature(2, 2)):
            for entry in oscillator_spectrum(sig, 2, 2):
                ok = ok and entry.degeneracy == dim_harmonics(sig, entry.k)
    coulomb = RadialProfile.power(Fraction(-1, 2)) * Fraction(-1)
    prob = reduce_problem(Signature(3, 0), coulomb, 0)
    res = solve_numeric(
        prob, GridSpec(r_max=30.0, nodes=3000, box=True), count=2, e_window=(-1.0, -0.01)
    )
    ok = ok and abs(res[0][0] + 0.5) < 1e-4
    ok = ok and abs(res[1][0] + 0.125) < 1e-4
    _report(12, "numeric spectra match closed forms; degeneracies match dimensions", ok)


def test_criterion_13_deterministic_verification():
    """Two runs of the seeded verification command produce byte-identical
    reports and exit cleanly."""
    cmd = [sys.executable, "-m", "superharm.cli", "verify-all", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and len(r1.stdout) > 0
        and r1.stdout == r2.stdout
    )
    _report(13, "seeded verification run is byte-identical across runs", ok)
