"""Orthosymplectically invariant Schrödinger problems.

An invariant hamiltonian is H = -laplacian/2 + V(R^2).  On a sector
h(R^2) H_k the whole problem collapses to a one-dimensional ODE in u = r^2,

    -2 u f''(u) - (2k + M) f'(u) + V(u) f(u) = E f(u),

so eigenpairs of the M-dimensional bosonic radial problem lift verbatim to
superspace.  This module carries the reduction object, the exact oscillator
spectrum with super-degeneracies, and a finite-difference eigensolver for the
reduced equation (working in r, where the sector equation is a radial
Laplacian at effective dimension M + 2k).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .harmonics import dim_harmonics
from .radial import RadialProfile, laplacian_profile
from .scalar import ExactScalar, RatLike
from .superpoly import Signature

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RadialProblem:
    """The reduced one-dimensional eigenproblem in the squared radius."""

    sig: Signature
    V: RadialProfile
    k: int = 0

    @property
    def first_order_coeff(self) -> int:
        """Coefficient of -f' in the reduced ODE: 2k + M."""
        return 2 * self.k + self.sig.superdim

    @property
    def sector_dimension(self) -> int:
        """Effective bosonic dimension of the sector equation in r: M + 2k."""
        return self.sig.superdim + 2 * self.k

    def ode_text(self) -> str:
        return f"-2*u*f'' - {self.first_order_coeff}*f' + V(u)*f = E*f"


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


def reduction_residual_at(problem: RadialProblem, f: RadialProfile, E: float, u: float) -> float:
    """Numeric residual of the reduced ODE at one point, for profiles without
    symbolic derivatives."""
    return (
        -2 * u * f.eval_deriv(2, u)
        - problem.first_order_coeff * f.eval_deriv(1, u)
        + (problem.V(u) - E) * f(u)
    )


# -- exact oscillator spectrum ------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
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


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered grid in r on (0, r_max) with a Dirichlet box at
    r_max.  ``box`` acknowledges the truncation for potentials that do not
    grow at the edge (bound states of wells, Coulomb tails, V = 0)."""

    r_max: float
    nodes: int = 2000
    box: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"grid extent r_max must be finite and positive, got {self.r_max}")
        if self.nodes < 2:
            raise ValueError(f"grid needs at least 2 nodes, got {self.nodes}")


def _fd_eigenvalues(problem: RadialProblem, r_max: float, nodes: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the sector equation
    -1/2 (phi'' + (Meff-1)/r phi') + V(r^2) phi = E phi on a staggered grid.

    Flux form with weight w = r^{Meff-1}, symmetrized by phi -> sqrt(w) phi;
    cell centers at (i+1/2)h keep the origin off the grid and the zero flux
    through r = 0 encodes the regular branch."""
    import numpy as np
    import scipy.linalg

    Meff = problem.sector_dimension
    h = r_max / nodes
    centers = (np.arange(nodes) + 0.5) * h
    edges = np.arange(nodes + 1) * h
    w_c = centers ** (Meff - 1)
    w_e = edges ** (Meff - 1)
    w_e[0] = 0.0  # no flux through the origin (regular solution)
    Vvals = np.array([problem.V(u) for u in centers**2])
    diag = (w_e[:-1] + w_e[1:]) / (2.0 * w_c * h * h) + Vvals
    diag[-1] += w_e[-1] / (2.0 * w_c[-1] * h * h)  # Dirichlet wall at r_max itself
    off = -w_e[1:-1] / (2.0 * h * h * np.sqrt(w_c[:-1] * w_c[1:]))
    return scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1)
    )


def solve_numeric(
    problem: RadialProblem,
    grid: GridSpec,
    count: int = 4,
    e_window: Optional[Tuple[float, float]] = None,
) -> List[Tuple[float, float]]:
    """Lowest eigenvalues of the reduced problem with a grid-halving error
    estimate: solved at nodes and 2*nodes, Richardson-extrapolated, the
    spread |E_2h - E_h|/3 reported as the error.  Returns (E, err) pairs,
    optionally filtered to ``e_window``."""
    if problem.sector_dimension < 1:
        raise ValueError(
            f"effective dimension M + 2k = {problem.sector_dimension} < 1: the origin "
            "term of the sector equation is too singular for this grid scheme"
        )
    u_edge = grid.r_max**2
    if not grid.box:
        grows = problem.V(u_edge) > problem.V(u_edge / 4) and problem.V(u_edge) > 0
        if not grows:
            raise ValueError(
                "potential does not grow toward r_max; pass GridSpec(box=True) to "
                "accept the Dirichlet truncation"
            )
    e1 = _fd_eigenvalues(problem, grid.r_max, grid.nodes, count)
    e2 = _fd_eigenvalues(problem, grid.r_max, 2 * grid.nodes, count)
    out = []
    for a, b in zip(e1, e2):
        extrapolated = (4.0 * b - a) / 3.0
        err = abs(b - a) / 3.0
        if e_window is not None and not (e_window[0] <= extrapolated <= e_window[1]):
            continue
        out.append((extrapolated, err))
    return out


def numeric_rows(problem: RadialProblem, results: Sequence[Tuple[float, float]]) -> List[dict]:
    """JSON rows for numeric eigenvalues, indexed by radial quantum number in
    order; degeneracy is carried by the harmonic sector."""
    deg = dim_harmonics(problem.sig, problem.k)
    return [
        {"j": j, "k": problem.k, "E": E, "degeneracy": deg, "err": err}
        for j, (E, err) in enumerate(results)
    ]
