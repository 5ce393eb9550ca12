"""Exact-plus-numeric harmonic analysis on spaces with commuting and
anticommuting coordinates (super-dimension M = m - 2n).

The headline objects re-exported here cover the everyday workflow: build
polynomials over a signature, apply the invariant operators, decompose into
spherical harmonics, integrate over the supersphere or the full space, expand
spherically symmetric functions, and reduce invariant Schrödinger problems to
radial ones.  The full surface lives in the submodules (``scalar``,
``grassmann``, ``superpoly``, ``harmonics``, ``integrate``, ``radial``,
``zonal``, ``schrodinger``, ``verify``, ``cli``).
"""

__version__ = "0.1.0"

import importlib

# re-exported name -> submodule; resolved on first access (PEP 562), so that
# importing the package loads no submodule
_EXPORTS = {
    "dim_harmonics": "harmonics",
    "dim_polynomials": "harmonics",
    "fischer_decompose": "harmonics",
    "fischer_reconstruct": "harmonics",
    "harmonic_basis": "harmonics",
    "reproducing_kernel": "harmonics",
    "pizzetti": "integrate",
    "reduce_integral": "integrate",
    "superball_poly": "integrate",
    "RadialProfile": "radial",
    "RadialSuperfunction": "radial",
    "fundamental_solution": "radial",
    "radial_expand": "radial",
    "ExactScalar": "scalar",
    "recip_gamma": "scalar",
    "sphere_area": "scalar",
    "GridSpec": "schrodinger",
    "oscillator_spectrum": "schrodinger",
    "solve_numeric": "schrodinger",
    "Signature": "superpoly",
    "SuperPolynomial": "superpoly",
    "euler": "superpoly",
    "laplace_beltrami": "superpoly",
    "laplacian": "superpoly",
    "mul_r2": "superpoly",
    "osp_generator": "superpoly",
    "r_squared": "superpoly",
    "funk_hecke_poly": "zonal",
    "mehler_bessel_check": "zonal",
}
__all__ = sorted(_EXPORTS)
_SUBMODULES = {
    "cli", "grassmann", "harmonics", "integrate", "radial", "scalar",
    "schrodinger", "sparse", "superpoly", "verify", "zonal",
}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
