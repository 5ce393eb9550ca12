"""Orthosymplectically invariant Schrödinger problems.

An invariant hamiltonian is H = -laplacian/2 + V(R^2).  On a sector
h(R^2) H_k the whole problem collapses to a one-dimensional ODE in u = r^2,

    -2 u f''(u) - (2k + M) f'(u) + V(u) f(u) = E f(u),

so eigenpairs of the M-dimensional bosonic radial problem lift verbatim to
superspace.  This module carries the reduction object, the exact oscillator
spectrum with super-degeneracies, and a finite-difference eigensolver for the
reduced equation (working in r, where the sector equation is a radial
Laplacian at effective dimension M + 2k).  The eigensolver is Sturm-count
bisection on the tridiagonal finite-difference matrix in plain Python, the
algorithm of LAPACK's dstebz; it needs no numpy or scipy.  Past D = M + 2k = 3
the origin cell's diagonal 2^{D-2}/h^2 sets |T|, and ulp |T| is 1.9e-3 on
6000 nodes at k = 12 on R^{3|0} (r_max = 12), so bisection stops at ulp times
the largest Gershgorin bound of the rows past the origin instead: on
R^{3|0} with V = u/2, the levels printed for j <= 2, k <= 12 are within
1.4e-8 of 2j + k + M/2 at --nodes 1500 and 3000.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .harmonics import dim_harmonics
from .radial import RadialProfile, laplacian_profile
from .scalar import RatLike
from .superpoly import Signature


class RadialProblem(NamedTuple):
    """The reduced one-dimensional eigenproblem in the squared radius."""

    sig: Signature
    V: RadialProfile
    k: int = 0

    @property
    def sector_dimension(self) -> int:
        """Effective bosonic dimension of the sector equation in r, and the
        coefficient of -f' in the reduced ODE: M + 2k."""
        return self.sig.superdim + 2 * self.k


def reduce(sig: Signature, V: RadialProfile, k: int = 0) -> RadialProblem:
    """Dimensional reduction of (-laplacian/2 + V(R^2)) on the sector
    h(R^2) H_k to the one-dimensional problem in u = r^2."""
    if k < 0:
        raise ValueError("harmonic degree must be nonnegative")
    return RadialProblem(sig, V, k)


def reduction_residual(problem: RadialProblem, f: RadialProfile, E: RatLike) -> RadialProfile:
    """Exact residual -2u f'' - (2k+M) f' + V f - E f as a profile (symbolic
    profiles only), i.e. -lap/2 on the sector at effective dimension M + 2k;
    identically zero iff (E, f) solves the reduced ODE."""
    lap = laplacian_profile(f, problem.sector_dimension)
    return lap * Fraction(-1, 2) + problem.V * f - f * Fraction(E)


# -- exact oscillator spectrum ------------------------------------------------


class SpectrumEntry(NamedTuple):
    j: int
    k: int
    E: Fraction
    degeneracy: int
    err: float = 0.0

    def as_row(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "E": float(self.E),
            "degeneracy": self.degeneracy,
            "err": self.err,
        }


def oscillator_spectrum(sig: Signature, j_max: int, k_max: int) -> List[SpectrumEntry]:
    """Exact spectrum of -laplacian/2 + R^2/2: E = 2j + k + M/2 with the
    dimension of the degree-k spherical harmonics as degeneracy.  For M in
    -2N the eigenfunction family is emitted with a completeness warning."""
    M = sig.superdim
    if M <= 0 and M % 2 == 0:
        warnings.warn(
            f"superdimension {M} is a nonpositive even integer: the oscillator "
            "eigenfunctions are emitted but not claimed to form a basis",
            UserWarning,
            stacklevel=2,
        )
    entries = [
        SpectrumEntry(j, k, Fraction(4 * j + 2 * k + M, 2), dim_harmonics(sig, k))
        for j in range(j_max + 1)
        for k in range(k_max + 1)
    ]
    entries.sort(key=lambda s: (s.E, s.k, s.j))
    return entries


def oscillator_level_count(sig: Signature, q: int) -> Tuple[int, int]:
    """Bookkeeping at energy E = q + M/2: (sum over 2j + k = q of dim H_k,
    dim P_q).  The two agree -- the degeneracy columns tile the polynomial
    space of degree q."""
    from .harmonics import dim_polynomials

    total = sum(dim_harmonics(sig, q - 2 * j) for j in range(q // 2 + 1))
    return total, dim_polynomials(sig, q)


# -- numeric eigensolver ------------------------------------------------------


class GridSpec:
    """Uniform staggered grid in r on (0, r_max) with a Dirichlet box at
    r_max.  ``box`` acknowledges the truncation for potentials that do not
    grow at the edge (bound states of wells, Coulomb tails, V = 0)."""

    __slots__ = ("r_max", "nodes", "box")

    def __init__(self, r_max: float, nodes: int = 2000, box: bool = False):
        if not (math.isfinite(r_max) and r_max > 0):
            raise ValueError(f"grid extent r_max must be finite and positive, got {r_max}")
        if nodes < 2:
            raise ValueError(f"grid needs at least 2 nodes, got {nodes}")
        self.r_max, self.nodes, self.box = r_max, nodes, box


_ULP = sys.float_info.epsilon  # LAPACK's dlamch('P')
_LOG_MAX, _LOG_MIN = math.log(sys.float_info.max), math.log(sys.float_info.min)  # normal floats
_MAX_BISECTIONS = 128  # halving a Gershgorin bracket (about 2 |T| wide) to ulp |T| takes 54


def _sturm_count(diag: List[float], off2: List[float], x: float, pivmin: float) -> int:
    """Number of eigenvalues of T below x (one at x may count either way):
    the negative pivots of T - x I = L D L^T, by Sylvester's inertia.
    ``off2`` holds the squared off-diagonal behind a leading 0; a pivot of
    size <= pivmin is taken as -pivmin, LAPACK's guard against a zero pivot."""
    q, below = 1.0, 0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if q <= pivmin:
            if q > -pivmin:
                q = -pivmin
            below += 1
    return below


def _fd_eigenvalues(
    problem: RadialProblem, r_max: float, nodes: int, count: int, guesses: Sequence[float] = ()
) -> List[float]:
    """Lowest eigenvalues of the sector equation
    -1/2 (phi'' + (Meff-1)/r phi') + V(r^2) phi = E phi on a staggered grid.

    Flux form with weight w = r^{Meff-1}, symmetrized by phi -> sqrt(w) phi;
    cell centers at (i+1/2)h keep the origin off the grid and the zero flux
    through r = 0 encodes the regular branch.  The tridiagonal matrix goes to
    ``_lowest_eigenvalues``."""
    if count > nodes:
        raise ValueError(f"{count} levels requested from a {nodes}-node grid, which has {nodes}")
    Meff = problem.sector_dimension
    h = r_max / nodes
    centers = [(i + 0.5) * h for i in range(nodes)]
    w_c = [c ** (Meff - 1) for c in centers]
    w_e = [(i * h) ** (Meff - 1) for i in range(nodes + 1)]
    w_e[0] = 0.0  # no flux through the origin (regular solution)
    diag = [
        (a + b) / (2.0 * w * h * h) + problem.V(c * c)
        for a, b, w, c in zip(w_e, w_e[1:], w_c, centers)
    ]
    diag[-1] += w_e[-1] / (2.0 * w_c[-1] * h * h)  # Dirichlet wall at r_max itself
    off = [-e / (2.0 * h * h * math.sqrt(a * b)) for e, a, b in zip(w_e[1:], w_c, w_c[1:])]
    return _lowest_eigenvalues(diag, off, count, guesses)


def _lowest_eigenvalues(
    diag: List[float], off: List[float], count: int, guesses: Sequence[float] = ()
) -> List[float]:
    """The ``count`` lowest eigenvalues of the symmetric tridiagonal matrix T
    with diagonal ``diag`` and off-diagonal ``off``, ascending.

    Sturm-count bisection (Barth, Martin and Wilkinson, Numer. Math. 9 (1967)
    386), the algorithm of LAPACK's dstebz: brackets start from the Gershgorin
    bounds, and each eigenvalue is the midpoint of a bracket narrower than
    max(ulp |T'|, 2 ulp |bound|).  |T'| is the largest |d_i| + radius_i over
    the rows i >= 1, where dstebz takes |T| over all rows: the origin row of
    the finite-difference operator, 2^{D-2}/h^2, is nearly decoupled and
    outgrows the rest as 2^D (module docstring), and the low eigenvectors
    carry little weight there.  That this floor is safe is argued, not
    proven; the k = 12 tests pin it.  |T'| falls back to |T| when it is 0 or
    T has one row, where it would leave bisection no floor.  Every Sturm
    count narrows the bracket of every wanted eigenvalue.  ``guesses`` (say
    the eigenvalues on a coarser grid) are probed at g -+ 1e-3 (1 + |g|)
    first; a probe that misses its eigenvalue still narrows some bracket."""
    if not all(map(math.isfinite, diag + off)):
        raise ValueError("finite-difference matrix has infinite or NaN entries")
    off2 = [0.0] + [e * e for e in off]
    radius = [abs(a) + abs(b) for a, b in zip([0.0] + off, off + [0.0])]
    gl = min(d - r for d, r in zip(diag, radius))
    gu = max(d + r for d, r in zip(diag, radius))
    tnorm = max(abs(gl), abs(gu))
    rest = max((abs(d) + r for d, r in zip(diag[1:], radius[1:])), default=0.0) or tnorm
    pivmin = sys.float_info.min * max(1.0, max(off2))
    pad = 2.1 * (tnorm * _ULP * len(diag) + 2.0 * pivmin)
    atol = max(_ULP * rest, pivmin)
    lo, hi = [gl - pad] * count, [gu + pad] * count

    def probe(x: float) -> None:
        below = _sturm_count(diag, off2, x, pivmin)
        for j in range(min(below, count)):
            hi[j] = min(hi[j], x)
        for j in range(below, count):
            lo[j] = max(lo[j], x)

    for g in guesses:
        delta = 1e-3 * (1.0 + abs(g))
        probe(g - delta)
        probe(g + delta)
    for j in range(count):
        for _ in range(_MAX_BISECTIONS):
            a, b = lo[j], hi[j]
            if b - a < max(atol, 2.0 * _ULP * max(abs(a), abs(b))):
                break
            probe(0.5 * (a + b))
        else:
            raise ArithmeticError(f"bisection for level {j} did not converge")
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def solve_numeric(
    problem: RadialProblem,
    grid: GridSpec,
    count: int = 4,
    e_window: Optional[Tuple[float, float]] = None,
) -> List[Tuple[float, float]]:
    """Lowest eigenvalues of the reduced problem at nodes and 2*nodes, as pairs
    (E, err) with E = (4 E_2h - E_h)/3 in ``e_window`` (LO <= HI) if given.
    err = |E_2h - E_h|/3 estimates the error of the finer-grid value E_2h, not
    of the E returned, and overstates the latter: by 10^3 to 10^5 at small
    D = M + 2k, and at k = 12 on R^{3|0}, nodes 1500 and 3000, err reads
    1.0e-4 and 2.6e-5 while E is off by 8.2e-9 and 5.5e-9.

    The levels of one sector are simple, so extrapolated values that are not
    strictly ascending mean the grid is too coarse, and are refused: the
    oscillator sectors tried reorder at 2 to 9 nodes and not from 10 on.
    Two levels are solved at least, so a sector asked for one is checked too.
    An r_max is refused when r_max^2, the weight r_max^{D-1} or the first
    fine-grid cell's r^{D-1} h^2 leaves the normal float range.

    A symbolic V with a term u^beta, D + 2 beta <= 0 (D = M + 2k), is refused:
    V(r^2) r^{D-1} is not integrable at r = 0 and the levels depend on the
    grid (the 1-D hydrogen problem at D = 1)."""
    if e_window is not None and not e_window[0] <= e_window[1]:
        raise ValueError(f"energy window [{e_window[0]}, {e_window[1]}] needs LO <= HI")
    D = problem.sector_dimension
    if D < 1:
        raise ValueError(
            f"effective dimension M + 2k = {D} < 1: the origin "
            "term of the sector equation is too singular for this grid scheme"
        )
    if isinstance(problem.V, RadialProfile):
        for beta, _, _ in problem.V.terms:
            if D + 2 * beta <= 0:
                raise ValueError(
                    f"potential term u^{beta} is too singular at r = 0 for effective "
                    f"dimension M + 2k = {D}: V(r^2) r^{D - 1} is not integrable"
                )
    log_r, log_h = math.log(grid.r_max), math.log(grid.r_max / (4 * grid.nodes))
    if max(2, D - 1) * log_r >= _LOG_MAX or (D + 1) * log_h <= _LOG_MIN:
        raise ValueError(f"grid extent r_max = {grid.r_max:g} leaves the float range "
                         f"in r_max^2 or the grid weights r^{D - 1}")
    u_edge = grid.r_max**2
    if not grid.box:
        grows = problem.V(u_edge) > problem.V(u_edge / 4) and problem.V(u_edge) > 0
        if not grows:
            raise ValueError(
                "potential does not grow toward r_max; pass GridSpec(box=True) to "
                "accept the Dirichlet truncation"
            )
    e1 = _fd_eigenvalues(problem, grid.r_max, grid.nodes, max(count, 2))
    e2 = _fd_eigenvalues(problem, grid.r_max, 2 * grid.nodes, max(count, 2), e1)
    levels = [((4.0 * b - a) / 3.0, abs(b - a) / 3.0) for a, b in zip(e1, e2)]
    if any(x >= y for (x, _), (y, _) in zip(levels, levels[1:])):
        raise ValueError(f"extrapolated levels out of order on {grid.nodes} nodes: "
                         "the grid is too coarse, raise --nodes")
    lo, hi = e_window or (-math.inf, math.inf)
    return [(E, err) for E, err in levels[:count] if lo <= E <= hi]


def numeric_rows(problem: RadialProblem, results: Sequence[Tuple[float, float]]) -> List[dict]:
    """JSON rows for numeric eigenvalues, indexed by radial quantum number in
    order; degeneracy is carried by the harmonic sector."""
    deg = dim_harmonics(problem.sig, problem.k)
    return [SpectrumEntry(j, problem.k, E, deg, err).as_row() for j, (E, err) in enumerate(results)]
