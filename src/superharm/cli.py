"""Command-line front end: single-shot computations and the seeded check suites.

Every command prints one JSON document to stdout (or to a file with --out);
CSV is available for the flat tables only (spectra and dimension sweeps).
Exact scalars appear in the canonical ``p/q*pi^(s/2)`` sum form produced by
``ExactScalar.to_text``.  Exit status: 0 when every check in the invoked
command passes, 1 when a check fails, 2 on invalid configuration — the
latter with a structured ``{"error": ...}`` object in the output.  ``--tol``
(default 1e-10, positive and finite) is the residual tolerance of ``mehler``,
the one command that reads a tolerance.

Each handler imports the modules its command needs, so a fresh process loads
only those (``verify`` only for ``verify-all``).
"""

import argparse
import csv
import io
import json
import random
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from .superpoly import Signature

DEG_MAX = 12  # cap on input polynomial degrees
K_MAX = 12  # cap on harmonic, kernel and quantum-number degrees
NODES_MAX = 3000  # cap on spectrum grid nodes (a cost bound): the largest grid the tests check


def _signature(args) -> "Signature":
    from .superpoly import Signature

    if args.m > 6 or args.n > 3:
        raise ValueError("signature outside supported caps (m <= 6, n <= 3)")
    return Signature(args.m, args.n)


def _check_degree(k: int, what: str) -> int:
    if k < 0 or k > K_MAX:
        raise ValueError(f"{what} {k} outside supported range 0..{K_MAX}")
    return k


# -- output plumbing ----------------------------------------------------------


_ERROR_SLUGS = {
    "UnsupportedSignatureError": "unsupported-signature",
    "NonIntegrableError": "non-integrable",
    "TruncationError": "truncation",
    "GammaPoleError": "gamma-pole",
    "DegenerateDegreeError": "degenerate-degree",
}


def _error_payload(exc: Exception, fallback: str = "invalid-config") -> dict:
    slug = _ERROR_SLUGS.get(type(exc).__name__, fallback)
    return {"error": {"type": slug, "message": str(exc)}}


def _render(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if rows is None:
            raise ValueError("csv output is only available for flat tables")
        if not rows:
            return ""  # an empty table names no columns
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # the reader is gone: exit 2 and write nothing more, not even at exit
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(2)


def _parse_coeffs(text: str) -> List[Fraction]:
    from .scalar import fraction_literal

    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not toks:
        raise ValueError("empty coefficient list")
    return [fraction_literal(t) for t in toks]


def _parse_profile(text: str):
    """``RadialProfile.parse``, but a lagexp degree above K_MAX is refused first."""
    from .radial import RadialProfile

    for j in re.findall(r"lagexp\s*\(\s*(\d+)\s*,", text):
        if int(j) > K_MAX:
            raise ValueError(f"lagexp degree {int(j)} above cap {K_MAX}")
    return RadialProfile.parse(text)


# -- command handlers ---------------------------------------------------------


Result = Tuple[dict, bool]


def _cmd_dims(args) -> Result:
    from .harmonics import dim_harmonics, dim_polynomials

    sig = _signature(args)
    if args.kmax is not None:
        _check_degree(args.kmax, "--kmax")
        rows = [
            {"k": k, "harmonics": dim_harmonics(sig, k), "polynomials": dim_polynomials(sig, k)}
            for k in range(args.kmax + 1)
        ]
        return {"m": args.m, "n": args.n, "rows": rows}, True
    if args.k is None:
        raise ValueError("dims needs --k (single degree) or --kmax (sweep)")
    if args.fmt == "csv":
        raise ValueError("csv output is only for the dimension sweep (--kmax)")
    _check_degree(args.k, "--k")
    return {"dim": dim_harmonics(sig, args.k)}, True


def _cmd_pizzetti(args) -> Result:
    from .integrate import pizzetti
    from .superpoly import SuperPolynomial

    sig = _signature(args)
    f = SuperPolynomial.parse(args.poly, sig)
    if f.terms and f.degree() > DEG_MAX:
        raise ValueError(f"polynomial degree {f.degree()} above cap {DEG_MAX}")
    return {"value": pizzetti(f).to_text()}, True


def _cmd_fischer(args) -> Result:
    from .harmonics import fischer_decompose, fischer_reconstruct
    from .superpoly import SuperPolynomial, laplacian

    sig = _signature(args)
    f = SuperPolynomial.parse(args.poly, sig)
    if not f.terms:
        return {"degree": 0, "blocks": [], "round_trip": True}, True
    if f.degree() > DEG_MAX:
        raise ValueError(f"polynomial degree {f.degree()} above cap {DEG_MAX}")
    if len(f.homogeneous_components()) > 1:
        raise ValueError("fischer needs a homogeneous polynomial")
    blocks = fischer_decompose(f)
    ok = all(laplacian(H).is_zero for _, H in blocks)
    ok = ok and (fischer_reconstruct(sig, blocks) - f).is_zero
    payload = {
        "degree": f.degree(),
        "blocks": [{"j": j, "harmonic": H.to_text()} for j, H in blocks],
        "round_trip": ok,
    }
    return payload, ok


def _cmd_funk_hecke(args) -> Result:
    from .zonal import funk_hecke_alpha_monomial

    sig = _signature(args)
    M = sig.superdim
    l = _check_degree(args.l, "--l")
    if args.profile is not None:
        coeffs = _parse_coeffs(args.profile)
        if len(coeffs) - 1 > K_MAX:
            raise ValueError(f"kernel degree {len(coeffs) - 1} above cap {K_MAX}")
        values = []
        for k, c in enumerate(coeffs):
            if not c:
                continue
            al = funk_hecke_alpha_monomial(M, l, k) * c
            values.append({"k": k, "alpha": al.to_text()})
        return {"superdim": M, "l": l, "values": values}, True
    if args.k is None:
        raise ValueError("funk-hecke needs --k (monomial degree) or --profile (coefficients)")
    k = _check_degree(args.k, "--k")
    al = funk_hecke_alpha_monomial(M, l, k)
    return {"superdim": M, "l": l, "k": k, "value": al.to_text()}, True


def _cmd_bochner(args) -> Result:
    from .zonal import hankel

    sig = _signature(args)
    k = _check_degree(args.k, "--k")
    psi = _parse_profile(args.profile)
    nu = k + sig.superdim / 2.0 - 1.0
    rows = [{"u": u, "value": hankel(nu, psi, u)} for u in (0.5, 1.0, 1.5, 2.0)]
    return {"nu": nu, "profile": args.profile, "rows": rows}, True


def _cmd_mehler(args) -> Result:
    from .zonal import mehler_bessel_check

    sig = _signature(args)
    tol = args.tol
    if not 0 < tol < float("inf"):
        raise ValueError("tolerance must be positive and finite")
    K = args.kmax
    if K < 0 or K > 80:
        raise ValueError("truncation order outside supported range 0..80")
    rnd = random.Random(args.seed)
    x = [rnd.uniform(-0.8, 0.8) for _ in range(sig.m)]
    y = [rnd.uniform(-0.8, 0.8) for _ in range(sig.m)]
    res = mehler_bessel_check(sig, x, y, K=K, tol=tol, m2_limit=True)
    ok = res < tol
    payload = {
        "x": x,
        "y": y,
        "K": K,
        "residual": res,
        "tolerance": tol,
        "passed": ok,
    }
    return payload, ok


def _cmd_fundsol(args) -> Result:
    from .radial import fundamental_normalization_check, fundamental_solution, laplacian_profile

    sig = _signature(args)
    l = args.l
    if l < 1 or l > 6:
        raise ValueError("--l outside supported range 1..6")
    fs = fundamental_solution(sig, l)
    p = fs.profile
    for _ in range(l):
        p = laplacian_profile(p, sig.superdim)
    annihilated = p.is_zero
    payload = {"superdim": sig.superdim, "l": l, "profile": fs.profile.to_text(),
               "annihilated": annihilated}
    ok = annihilated
    if sig.superdim % 2:
        lhs, rhs = fundamental_normalization_check(sig, l)
        norm_ok = lhs == rhs
        payload["normalization"] = {
            "computed": lhs.to_text(),
            "expected": rhs.to_text(),
            "passed": norm_ok,
        }
        ok = ok and norm_ok
    return payload, ok


def _cmd_spectrum(args) -> Result:
    from .schrodinger import (
        GridSpec, numeric_rows, oscillator_spectrum, reduce as reduce_problem, solve_numeric,
    )

    sig = _signature(args)
    jmax = _check_degree(args.jmax, "--jmax")
    kmax = _check_degree(args.kmax, "--kmax")
    if args.nodes > NODES_MAX:
        raise ValueError(f"--nodes {args.nodes} above cap {NODES_MAX}")
    lo, hi = args.window or (-float("inf"), float("inf"))
    if not lo <= hi:
        raise ValueError(f"energy window [{lo}, {hi}] needs LO <= HI")
    if args.V == "osc":
        entries = oscillator_spectrum(sig, jmax, kmax)
        rows = [e.as_row() for e in entries]
    else:
        V = _parse_profile(args.V)
        grid = GridSpec(r_max=args.rmax, nodes=args.nodes, box=args.box)
        rows = []
        for k in range(kmax + 1):  # every level first, so each row keeps its j
            prob = reduce_problem(sig, V, k)
            rows.extend(numeric_rows(prob, solve_numeric(prob, grid, count=jmax + 1)))
        rows.sort(key=lambda r: (r["E"], r["k"], r["j"]))
    rows = [r for r in rows if lo <= r["E"] <= hi]
    return {"m": args.m, "n": args.n, "V": args.V, "rows": rows}, True


def _cmd_reduce_integral(args) -> Result:
    from .integrate import reduce_integral
    from .scalar import ExactScalar

    sig = _signature(args)
    val = reduce_integral(_parse_profile(args.profile), sig)
    if isinstance(val, ExactScalar):
        payload = {"superdim": sig.superdim, "value": val.to_text(), "float": val.to_float()}
    else:
        payload = {"superdim": sig.superdim, "value": float(val)}
    return payload, True


def _cmd_verify_all(args) -> Result:
    from . import verify

    report = verify.run_all(seed=args.seed, names=args.suite or None)
    return report, bool(report["passed"])


_DISPATCH = {
    "dims": _cmd_dims,
    "pizzetti": _cmd_pizzetti,
    "fischer": _cmd_fischer,
    "funk-hecke": _cmd_funk_hecke,
    "bochner": _cmd_bochner,
    "mehler": _cmd_mehler,
    "fundsol": _cmd_fundsol,
    "spectrum": _cmd_spectrum,
    "reduce-integral": _cmd_reduce_integral,
    "verify-all": _cmd_verify_all,
}


# -- argument parsing ---------------------------------------------------------


def _suite_name(name: str) -> str:
    """argparse type of --suite: a name from verify.SUITES."""
    from . import verify

    if name not in verify.SUITES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(sorted(verify.SUITES))})"
        )
    return name


def _add_sig(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, required=True, help="number of commuting variables")
    p.add_argument("--n", type=int, required=True, help="half the number of anticommuting variables")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="write the result to this file instead of stdout")
    # argparse's private negative-number pattern: a single-dash argument that is
    # not a registered option (-inf, -1*exp(2), -x1^2) is a value
    p._negative_number_matcher = re.compile(r"^-[^-]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superharm",
        description="Exact and numeric harmonic analysis on R^{m|2n}.",
        epilog="mehler takes --tol, its residual tolerance (default 1e-10; positive and finite).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension of the degree-k spherical harmonics")
    _add_sig(p)
    p.add_argument("--k", type=int, default=None, help="single degree")
    p.add_argument("--kmax", type=int, default=None, help="sweep degrees 0..kmax")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    _add_common(p)

    p = sub.add_parser("pizzetti", help="exact sphere integral of a polynomial")
    _add_sig(p)
    p.add_argument("--poly", required=True, help='polynomial text, e.g. "x1^2 + 2 f1 f2"')
    _add_common(p)

    p = sub.add_parser("fischer", help="harmonic block decomposition of a homogeneous polynomial")
    _add_sig(p)
    p.add_argument("--poly", required=True, help="homogeneous polynomial text")
    _add_common(p)

    p = sub.add_parser("funk-hecke", help="exact sphere-transform coefficients of a zonal kernel")
    _add_sig(p)
    p.add_argument("--l", type=int, required=True, help="harmonic degree")
    p.add_argument("--k", type=int, default=None, help="monomial kernel degree t^k")
    p.add_argument("--profile", default=None, help='polynomial kernel coefficients "c0,c1,..."')
    _add_common(p)

    p = sub.add_parser(
        "bochner",
        help="radial transform values for a decaying profile (closed form)",
        description="Hankel transform values of a radial profile at u = 0.5, 1, 1.5, 2, "
        "in closed form.",
    )
    _add_sig(p)
    p.add_argument("--k", type=int, required=True, help="harmonic degree (sets the transform order)")
    p.add_argument("--profile", required=True, help='radial profile, e.g. "exp(1/2)"')
    _add_common(p)

    p = sub.add_parser("mehler", help="kernel expansion residual at a seeded random point pair")
    _add_sig(p)
    p.add_argument("--kmax", type=int, default=40, help="series truncation order")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance (default 1e-10)")
    _add_common(p)

    p = sub.add_parser("fundsol", help="iterated-Laplacian fundamental solution profile")
    _add_sig(p)
    p.add_argument("--l", type=int, required=True, help="half the order of the iterated Laplacian")
    _add_common(p)

    p = sub.add_parser("spectrum", help="radial Schrodinger spectrum (exact oscillator or numeric)")
    _add_sig(p)
    p.add_argument("--V", required=True, help='"osc" for the exact oscillator, else a profile like "pow(-1/2)"')
    p.add_argument("--jmax", type=int, required=True, help="radial quantum numbers 0..jmax")
    p.add_argument("--kmax", type=int, required=True, help="harmonic degrees 0..kmax")
    p.add_argument("--rmax", type=float, default=12.0, help="numeric grid extent")
    p.add_argument("--nodes", type=int, default=1500,
                   help="numeric grid size; E is extrapolated from NODES and 2*NODES, and err = "
                   "|E_2h - E_h|/3 estimates the error of E_2h, which overstates that of E "
                   "(10^3-10^5 times at small M + 2k)")
    p.add_argument("--box", action="store_true", help="accept a hard wall at rmax")
    p.add_argument("--window", type=float, nargs=2, default=None, metavar=("LO", "HI"),
                   help="keep the rows with E in [LO, HI] (LO may be -inf)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    _add_common(p)

    p = sub.add_parser("reduce-integral", help="integral of h(R^2): pi^(M/2) times a Mellin moment")
    _add_sig(p)
    p.add_argument("--profile", required=True, help='radial profile, e.g. "exp(1)"')
    _add_common(p)

    p = sub.add_parser(
        "verify-all",
        help="run the seeded property-check suites (fixed thresholds)",
        description="Run the seeded property-check suites.  Every check uses its own fixed "
        "threshold.",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", action="append", type=_suite_name,
                   help="restrict to one or more suites (repeatable)")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, passed = _DISPATCH[args.command](args)
        _write(_render(payload, getattr(args, "fmt", "json")), args.out)
        return 0 if passed else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        error = _error_payload(exc)
    except Exception as exc:
        error = _error_payload(exc, "internal-error")
    text = _render(error, "json")
    try:
        _write(text, args.out)
    except OSError:  # an unwritable --out: the error goes to stdout
        _write(text, None)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
