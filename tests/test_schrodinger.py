"""Radial reduction of invariant Schrödinger problems, the exact oscillator
spectrum with super-degeneracies, and the finite-difference eigensolver at
effective dimension M + 2k."""

import math
from fractions import Fraction

import pytest

from superharm.harmonics import dim_harmonics, dim_polynomials
from superharm.radial import NumericProfile, RadialProfile
from superharm.superpoly import Signature
from superharm import schrodinger as S
from superharm import zonal as Z

OSC = RadialProfile.polynomial([0, Fraction(1, 2)])


# -- reduction ----------------------------------------------------------------


def test_reduce_ode_coefficients():
    sig = Signature(5, 1)  # M = 3
    prob = S.reduce(sig, OSC, 0)
    assert prob.sector_dimension == 3
    # k enters only through 2k + M
    for k in (1, 2, 5):
        assert S.reduce(sig, OSC, k).sector_dimension == 2 * k + 3
    assert S.reduce(Signature(3, 1), OSC, 2).sector_dimension == 5


def test_reduce_zero_potential_constant_solution():
    sig = Signature(3, 1)
    prob = S.reduce(sig, RadialProfile.polynomial([0]), 0)
    const = RadialProfile.polynomial([1])
    assert S.reduction_residual(prob, const, 0).is_zero


def test_reduce_rejects_negative_sector():
    with pytest.raises(ValueError):
        S.reduce(Signature(3, 1), OSC, -1)


def test_oscillator_eigenprofile_residual_exact():
    """The oscillator eigenfunction profiles solve the reduced ODE with
    E = 2j + k + M/2, exactly at the level of symbolic profiles."""
    for (m, n) in ((3, 1), (2, 1), (2, 2)):
        sig = Signature(m, n)
        M = sig.superdim
        for j in range(3):
            for k in range(3):
                prob = S.reduce(sig, OSC, k)
                f = Z.clifford_hermite(sig, j, k)
                E = Fraction(4 * j + 2 * k + M, 2)
                assert S.reduction_residual(prob, f, E).is_zero, (m, n, j, k)
                # the residual is linear in E: one unit more leaves -f
                assert S.reduction_residual(prob, f, E + 1) == -f, (m, n, j, k)


def reduction_residual_at(problem, f, E: float, u: float) -> float:
    """Numeric residual of the reduced ODE at one point, for profiles without
    symbolic derivatives."""
    return (
        -2 * u * f.eval_deriv(2, u)
        - problem.sector_dimension * f.eval_deriv(1, u)
        + (problem.V(u) - E) * f.eval_deriv(0, u)
    )


def test_hydrogen_profile_residual_numeric():
    """f = exp(-sqrt(u)) solves the Coulomb-reduced ODE at M = 3, k = 0 with
    E = -1/2; checked pointwise through the evaluator route."""
    sig = Signature(5, 1)
    Vc = RadialProfile.power(Fraction(-1, 2)) * Fraction(-1)
    prob = S.reduce(sig, Vc, 0)

    def fn(i, u):
        s = math.sqrt(u)
        e = math.exp(-s)
        if i == 0:
            return e
        if i == 1:
            return -0.5 * e / s
        return (0.25 / u + 0.25 / u / s) * e

    f = NumericProfile(fn, j_max=2)
    for u in (0.3, 1.0, 2.7, 6.25):
        assert abs(reduction_residual_at(prob, f, -0.5, u)) < 1e-8


# -- exact oscillator spectrum ------------------------------------------------


def test_oscillator_spectrum_m3n1():
    sig = Signature(3, 1)  # M = 1
    entries = S.oscillator_spectrum(sig, 2, 2)
    assert entries[0].E == Fraction(1, 2) and entries[0].degeneracy == 1
    by_Ek = {(e.E, e.k): e.degeneracy for e in entries}
    assert by_Ek[(Fraction(3, 2), 1)] == 5
    assert by_Ek[(Fraction(5, 2), 2)] == 12
    assert all(e.E == Fraction(4 * e.j + 2 * e.k + 1, 2) for e in entries)
    Es = [float(e.E) for e in entries]
    assert Es == sorted(Es)


def test_oscillator_spectrum_bosonic_2d():
    entries = S.oscillator_spectrum(Signature(2, 0), 2, 2)
    assert all(e.E == 2 * e.j + e.k + 1 for e in entries)


@pytest.mark.filterwarnings("ignore:superdimension")
def test_oscillator_degeneracy_column():
    for (m, n) in ((3, 1), (4, 2), (2, 0)):
        sig = Signature(m, n)
        for e in S.oscillator_spectrum(sig, 2, 3):
            assert e.degeneracy == dim_harmonics(sig, e.k)


def test_oscillator_degenerate_superdimension_warns():
    with pytest.warns(UserWarning):
        entries = S.oscillator_spectrum(Signature(2, 1), 1, 1)
    assert entries  # spectrum still emitted
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S.oscillator_spectrum(Signature(3, 1), 1, 1)  # M = 1: no warning


@pytest.mark.parametrize("m,n", [(3, 1), (2, 1), (4, 2), (2, 2)])
def test_oscillator_level_count_matches_polynomial_dimension(m, n):
    sig = Signature(m, n)
    for q in range(7):
        total, dim_p = S.oscillator_level_count(sig, q)
        assert total == dim_p, q


def test_spectrum_entry_rows():
    rows = [e.as_row() for e in S.oscillator_spectrum(Signature(3, 1), 1, 1)]
    assert all(set(r) == {"j", "k", "E", "degeneracy", "err"} for r in rows)
    assert rows[0]["E"] == 0.5 and rows[0]["err"] == 0.0


# -- numeric eigensolver ------------------------------------------------------


def test_numeric_oscillator_m3():
    sig = Signature(5, 1)  # M = 3
    res = S.solve_numeric(S.reduce(sig, OSC, 0), S.GridSpec(8.0, 1500), count=3)
    for (E, err), exact in zip(res, (1.5, 3.5, 5.5)):
        assert abs(E - exact) < 1e-6
        assert err < 1e-4


@pytest.mark.parametrize("nodes", [1500, 3000])
def test_numeric_oscillator_high_sector_dimension(nodes):
    """At k = 12 on R^{3|0} (D = 27) the origin cell's diagonal 2^{D-2}/h^2
    dominates |T|; the levels must still reach 2j + k + M/2."""
    res = S.solve_numeric(S.reduce(Signature(3, 0), OSC, 12), S.GridSpec(12.0, nodes), count=2)
    for j, (E, _) in enumerate(res):
        assert abs(E - (2 * j + 12 + 1.5)) < 1e-7


def test_numeric_oscillator_m1_sectors():
    sig = Signature(3, 1)  # M = 1
    res = S.solve_numeric(S.reduce(sig, OSC, 1), S.GridSpec(8.0, 1500), count=3)
    for j, (E, _) in enumerate(res):
        assert abs(E - (2 * j + 1.5)) < 1e-6
    res = S.solve_numeric(S.reduce(sig, OSC, 0), S.GridSpec(8.0, 1500), count=3)
    for j, (E, _) in enumerate(res):
        assert abs(E - (2 * j + 0.5)) < 1e-6


def test_numeric_negative_superdimension_sector():
    """M = -1 with k = 1 has a regular sector equation (effective dimension 1)
    and the eigenvalue formula still reads 2j + k + M/2."""
    res = S.solve_numeric(S.reduce(Signature(1, 1), OSC, 1), S.GridSpec(8.0, 1500), count=3)
    for j, (E, _) in enumerate(res):
        assert abs(E - (2 * j + 0.5)) < 1e-6


def test_numeric_hydrogen():
    sig = Signature(5, 1)
    Vc = RadialProfile.power(Fraction(-1, 2)) * Fraction(-1)
    res = S.solve_numeric(
        S.reduce(sig, Vc, 0), S.GridSpec(30.0, 3000, box=True), count=2,
        e_window=(-1.0, -0.01),
    )
    assert abs(res[0][0] + 0.5) < 1e-4
    assert abs(res[1][0] + 0.125) < 1e-4


def test_numeric_box_oracle():
    """V = 0 in a Dirichlet box with the regular (Neumann) branch at the
    origin: E = ((n+1/2) pi / L)^2 / 2 at effective dimension 1."""
    L = 3.0
    res = S.solve_numeric(
        S.reduce(Signature(1, 0), RadialProfile.polynomial([0]), 0),
        S.GridSpec(L, 1200, box=True), count=3,
    )
    for n_, (E, _) in enumerate(res):
        assert abs(E - ((n_ + 0.5) * math.pi / L) ** 2 / 2) < 1e-6


@pytest.mark.parametrize("sig,k,nodes", [(Signature(3, 0), 0, 2), (Signature(3, 0), 12, 9),
                                         (Signature(3, 1), 1, 7), (Signature(1, 1), 1, 5)])
def test_numeric_refuses_levels_out_of_order(sig, k, nodes):
    # the extrapolated levels of a coarse grid used to come back reordered:
    # on R^{3|0}, 2 nodes, E = 0.147 (j = 1) before 0.277 (j = 0), for 3.5 and 1.5
    prob = S.reduce(sig, OSC, k)
    with pytest.raises(ValueError, match="out of order on .* raise --nodes"):
        S.solve_numeric(prob, S.GridSpec(12.0, nodes), count=min(nodes, 3))
    assert len(S.solve_numeric(prob, S.GridSpec(12.0, 10), count=3)) == 3


def test_numeric_window_filter():
    sig = Signature(5, 1)
    res = S.solve_numeric(S.reduce(sig, OSC, 0), S.GridSpec(8.0, 1000), count=4,
                          e_window=(3.0, 6.0))
    assert [round(E, 3) for E, _ in res] == [3.5, 5.5]


def test_numeric_gating():
    sig = Signature(5, 1)
    Vc = RadialProfile.power(Fraction(-1, 2)) * Fraction(-1)
    with pytest.raises(ValueError):
        S.solve_numeric(S.reduce(sig, Vc, 0), S.GridSpec(30.0, 500))
    with pytest.raises(ValueError):
        S.solve_numeric(S.reduce(Signature(1, 1), OSC, 0), S.GridSpec(4.0, 200))


def test_numeric_rows_format():
    sig = Signature(5, 1)
    prob = S.reduce(sig, OSC, 1)
    res = S.solve_numeric(prob, S.GridSpec(8.0, 800), count=2)
    rows = S.numeric_rows(prob, res)
    assert [r["j"] for r in rows] == [0, 1]
    assert all(r["k"] == 1 and r["degeneracy"] == dim_harmonics(sig, 1) for r in rows)
    assert all(r["err"] > 0 for r in rows)


@pytest.mark.parametrize("m,n,k,Z", [(3, 1, 1, 1), (3, 1, 1, 2), (2, 2, 2, 1), (2, 2, 3, 1)])
def test_numeric_kepler_closed_form(m, n, k, Z):
    """V = -Z u^(-1/2) at sector dimension D = M + 2k > 1 has the levels
    E_j = -Z^2 / (2 (j + (D-1)/2)^2); M = -2 on R^{2|4} gives D = 2 and 4."""
    prob = S.reduce(Signature(m, n), RadialProfile.power(Fraction(-1, 2)) * -Z, k)
    D = prob.sector_dimension
    res = S.solve_numeric(prob, S.GridSpec(60.0, 3000, box=True), count=3)
    for j, (E, _) in enumerate(res):
        assert abs(E + Z * Z / (2 * (j + (D - 1) / 2) ** 2)) < 1e-6, (D, j, E)


@pytest.mark.parametrize("V,sig,k", [
    (RadialProfile.power(Fraction(-1, 2)) * -1, Signature(3, 1), 0),  # 1-D hydrogen
    (RadialProfile.power(Fraction(-1)), Signature(2, 0), 0),  # u^-1 against r^1
    (RadialProfile.power_log(Fraction(-3, 2)), Signature(3, 0), 0),
])
def test_numeric_refuses_potential_singular_at_origin(V, sig, k):
    with pytest.raises(ValueError, match="too singular"):
        S.solve_numeric(S.reduce(sig, V, k), S.GridSpec(60.0, 200, box=True), count=2)


def _anharmonic_levels(D, g, count, N=200):
    """Lowest levels of -lap/2 + u/2 + g u^2 on the sector of dimension D, in
    the orthonormal oscillator basis L_j^(nu)(u) e^(-u/2), nu = D/2 - 1: the
    oscillator is diag(2j + D/2), and u is the tridiagonal Laguerre Jacobi
    matrix (DLMF 18.9.13), squared one size up so that the N x N block of
    U^2 is exact."""
    import numpy as np

    nu = D / 2 - 1
    j = np.arange(N + 1)
    off = -np.sqrt((j[:-1] + 1) * (j[:-1] + nu + 1))
    U = np.diag(2 * j + nu + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    H = np.diag(2 * j[:N] + D / 2) + g * (U @ U)[:N, :N]
    return np.linalg.eigvalsh(H)[:count]


@pytest.mark.parametrize("g", [Fraction(1, 10), Fraction(1)])
@pytest.mark.parametrize("sig,k", [(Signature(1, 1), 1), (Signature(3, 0), 0),
                                   (Signature(4, 0), 0)])
def test_numeric_anharmonic_matches_oscillator_basis(sig, k, g):
    """Finite differences against the oscillator-basis oracle for V = u/2 +
    g u^2, at sector dimensions 1 (R^{1|2}, k = 1), 3 and 4; each level lies
    within its own err and within 1e-8."""
    prob = S.reduce(sig, RadialProfile.polynomial([0, Fraction(1, 2), g]), k)
    res = S.solve_numeric(prob, S.GridSpec(8.0, 1500), count=3)
    want = _anharmonic_levels(prob.sector_dimension, float(g), 3)
    assert len(res) == 3
    for (E, err), ref in zip(res, want):
        assert abs(E - ref) <= err, (prob.sector_dimension, E, ref, err)
        assert abs(E - ref) <= 1e-8, (prob.sector_dimension, E, ref)


def test_numeric_window_must_be_ordered():
    prob = S.reduce(Signature(3, 0), OSC, 0)
    for window in ((5.0, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="window"):
            S.solve_numeric(prob, S.GridSpec(8.0, 200), count=2, e_window=window)
    res = S.solve_numeric(prob, S.GridSpec(8.0, 200), count=2, e_window=(-math.inf, math.inf))
    assert len(res) == 2


def _scipy_fd_levels(prob, r_max, nodes, count):
    """The finite-difference matrix with numpy and its lowest eigenvalues with
    LAPACK's dstebz (scipy), plus the matrix inf-norm."""
    import numpy as np
    import scipy.linalg

    Meff = prob.sector_dimension
    h = r_max / nodes
    centers = (np.arange(nodes) + 0.5) * h
    w_c = centers ** (Meff - 1)
    w_e = (np.arange(nodes + 1) * h) ** (Meff - 1)
    w_e[0] = 0.0
    diag = (w_e[:-1] + w_e[1:]) / (2.0 * w_c * h * h) + [prob.V(float(c * c)) for c in centers]
    diag[-1] += w_e[-1] / (2.0 * w_c[-1] * h * h)
    off = -w_e[1:-1] / (2.0 * h * h * np.sqrt(w_c[:-1] * w_c[1:]))
    norm = max(abs(diag) + np.r_[0, abs(off)] + np.r_[abs(off), 0])
    levels = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return list(levels), norm


@pytest.mark.parametrize("nodes", [2, 3, 17, 1500, 3000])
def test_fd_eigenvalues_match_lapack(nodes):
    """Sturm bisection against dstebz on the same matrices: oscillator and
    Coulomb potentials at sector dimensions 1, 2, 3 and 6, cold and seeded
    with nearby guesses as the 2n-node solve of ``solve_numeric`` is."""
    coulomb = RadialProfile.power(Fraction(-1, 2)) * -1
    for sig, k in ((Signature(1, 0), 0), (Signature(2, 0), 0), (Signature(3, 0), 0),
                   (Signature(4, 0), 1)):
        for V, r_max in ((OSC, 10.0), (coulomb, 40.0)):
            prob = S.reduce(sig, V, k)
            count = min(4, nodes)
            want, norm = _scipy_fd_levels(prob, r_max, nodes, count)
            for guesses in ((), [w + 1e-4 for w in want]):
                got = S._fd_eigenvalues(prob, r_max, nodes, count, guesses)
                assert len(got) == count
                for a, b in zip(got, want):
                    assert abs(a - b) <= 4 * 2.0**-52 * norm, (prob.sector_dimension, nodes, a, b)


def test_tridiagonal_zero_pivot_and_refusals():
    # the first midpoint of the Gershgorin bracket is 0 = diag[0]: a zero pivot
    r2 = math.sqrt(2.0)
    got = S._lowest_eigenvalues([0.0, 0.0, 0.0], [1.0, 1.0], 3)
    assert got == pytest.approx([-r2, 0.0, r2], abs=1e-15)
    got = S._lowest_eigenvalues([-1.0, 0.0, 1.0], [0.0, 0.0], 3)
    assert got == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)
    # coarse-grid guesses that miss every level still give the right levels
    got = S._lowest_eigenvalues([0.0, 0.0, 0.0], [1.0, 1.0], 2, [5.0, 7.0])
    assert got == pytest.approx([-r2, 0.0], abs=1e-15)
    # the rows past the origin are all zero, or there are none: the bisection
    # floor falls back to |T| instead of shrinking to pivmin
    got = S._lowest_eigenvalues([5.0, 0.0, 0.0], [0.0, 0.0], 3)
    assert got == pytest.approx([0.0, 0.0, 5.0], abs=1e-15)
    assert S._lowest_eigenvalues([2.5], [], 1) == pytest.approx([2.5], abs=1e-15)
    for diag, off in (([1.0, math.nan], [0.5]), ([1.0, 2.0], [math.inf])):
        with pytest.raises(ValueError, match="infinite or NaN"):
            S._lowest_eigenvalues(diag, off, 1)
    with pytest.raises(ValueError, match="3 levels requested from a 2-node grid"):
        S._fd_eigenvalues(S.reduce(Signature(3, 0), OSC, 0), 8.0, 2, 3)
