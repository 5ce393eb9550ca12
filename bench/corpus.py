"""The CLI corpus behind the ``cli-cold`` workload and the behaviour snapshot.

Every entry is one ``superharm`` invocation with the exit code it must give
and a check of its output by an independent route: closed forms and monomial
counts computed here in plain Python, never through the package.  Entries of
exact commands also have their stdout bytes pinned in ``golden/``.

``KNOWN_DEFECTS`` are inputs that must be refused with exit 2 and a
structured error, and today are not (silent wrong answers, a traceback).
They stay in every run and count as failed operations until fixed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class Entry:
    name: str
    argv: tuple
    expect: int = 0
    exact: bool = False                 # stdout bytes pinned in the snapshot
    check: Optional[Callable[[object], bool]] = None
    csv: bool = False


# -- closed forms -----------------------------------------------------------------


def _rgamma(z: float) -> float:
    if z <= 0 and z == int(z):
        return 0.0
    return 1.0 / math.gamma(z)


def sphere_area(M: int) -> float:
    return 2 * math.pi ** (M / 2) * _rgamma(M / 2)


def alpha(M: int, l: int, k: int) -> float:
    """Sphere transform of t^k at harmonic degree l."""
    if (k + l) % 2 or k < l:
        return 0.0
    return (math.factorial(k) / math.factorial(k - l) * 2 * math.pi ** ((M - 1) / 2) / 2 ** l
            * math.gamma((k - l + 1) / 2) * _rgamma((M + k + l) / 2))


def monomials(m: int, n: int, k: int) -> int:
    """Count degree-k monomials by enumeration of bosonic exponent multisets."""
    if k < 0:
        return 0
    return sum(
        math.comb(2 * n, f) * sum(1 for _ in itertools.combinations_with_replacement(range(m), k - f))
        for f in range(min(k, 2 * n) + 1)
    )


def harmonics_dim(m: int, n: int, k: int) -> int:
    return monomials(m, n, k) - monomials(m, n, k - 2)


def scalar_value(text: str) -> float:
    """Float value of an exact scalar printed as a sum of q*pi^(s/2) terms."""
    total = 0.0
    for term in text.split(" + "):
        coef, _, pipart = term.partition("*") if "*" in term else (
            ("1", "", term) if term.startswith("pi") else (term, "", ""))
        num, _, den = coef.partition("/")
        q = int(num) / int(den or 1)
        if not pipart:
            s = 0
        elif pipart == "pi":
            s = 2
        elif pipart.startswith("pi^("):
            s = int(pipart[4:-3])
        else:
            s = 2 * int(pipart[3:])
        total += q * math.pi ** (s / 2)
    return total


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# -- checks -------------------------------------------------------------------------


def _dims_rows(m, n):
    return lambda rows: all(
        int(r["harmonics"]) == harmonics_dim(m, n, int(r["k"]))
        and int(r["polynomials"]) == monomials(m, n, int(r["k"])) for r in rows)


def _levels(m, n, atol=0.0):
    M = m - 2 * n
    return lambda rows: bool(rows) and all(
        abs(float(r["E"]) - (2 * int(r["j"]) + int(r["k"]) + M / 2)) <= atol
        and int(r["degeneracy"]) == harmonics_dim(m, n, int(r["k"])) for r in rows)


def _bochner(M, k, a):
    nu = k + M / 2 - 1
    return lambda p: all(
        close(r["value"], math.exp(-r["u"] ** 2 / (4 * a)) / (2 * a) ** (nu + 1), 1e-8)
        for r in p["rows"])


def _gaussian_integral(M):
    return lambda p: close(p.get("float", p["value"]) if isinstance(p["value"], str) else p["value"],
                           math.pi ** (M / 2), 1e-8)


def _error(p) -> bool:
    err = p.get("error") if isinstance(p, dict) else None
    return isinstance(err, dict) and isinstance(err.get("type"), str) and isinstance(err.get("message"), str)


def _sig(m, n):
    return ("--m", str(m), "--n", str(n))


CORPUS: List[Entry] = [
    Entry("dims-k", ("dims",) + _sig(3, 1) + ("--k", "2"), exact=True,
          check=lambda p: p["dim"] == harmonics_dim(3, 1, 2)),
    Entry("dims-k-negative-M", ("dims",) + _sig(2, 2) + ("--k", "3"), exact=True,
          check=lambda p: p["dim"] == harmonics_dim(2, 2, 3)),
    Entry("dims-sweep-csv", ("dims",) + _sig(3, 1) + ("--kmax", "4", "--format", "csv"),
          exact=True, csv=True, check=_dims_rows(3, 1)),
    Entry("dims-sweep-json", ("dims",) + _sig(4, 1) + ("--kmax", "3"), exact=True,
          check=lambda p: _dims_rows(4, 1)(p["rows"])),
    Entry("pizzetti-one", ("pizzetti",) + _sig(3, 1) + ("--poly", "1"), exact=True,
          check=lambda p: close(scalar_value(p["value"]), sphere_area(1))),
    Entry("pizzetti-mixed", ("pizzetti",) + _sig(3, 1) + ("--poly", "x1^2 + -1/3 x1 f1 f2 + 1"),
          exact=True, check=lambda p: close(scalar_value(p["value"]), sphere_area(1) * 2)),
    Entry("pizzetti-radius", ("pizzetti",) + _sig(4, 1) + ("--poly", "x1^2 + x2^2 + x3^2 + x4^2 + -1 f1 f2"),
          exact=True, check=lambda p: close(scalar_value(p["value"]), sphere_area(2))),
    Entry("fischer-square", ("fischer",) + _sig(3, 1) + ("--poly", "x1^2"), exact=True,
          check=lambda p: p["round_trip"] is True and len(p["blocks"]) == 2),
    Entry("fischer-cubic", ("fischer",) + _sig(3, 1) + ("--poly", "x1^2 x2 + 2 x3 f1 f2"), exact=True,
          check=lambda p: p["round_trip"] is True),
    Entry("funk-hecke-k2", ("funk-hecke",) + _sig(3, 1) + ("--k", "2", "--l", "0"), exact=True,
          check=lambda p: close(scalar_value(p["value"]), alpha(1, 0, 2))),
    Entry("funk-hecke-k3", ("funk-hecke",) + _sig(4, 1) + ("--k", "3", "--l", "1"), exact=True,
          check=lambda p: close(scalar_value(p["value"]), alpha(2, 1, 3))),
    Entry("funk-hecke-profile", ("funk-hecke",) + _sig(3, 1) + ("--profile", "1,0,2", "--l", "0"),
          exact=True, check=lambda p: [close(scalar_value(v["alpha"]), c * alpha(1, 0, v["k"]))
                                       for v, c in zip(p["values"], (1, 2))] == [True, True]),
    Entry("fundsol-odd", ("fundsol",) + _sig(3, 1) + ("--l", "1"), exact=True,
          check=lambda p: p["annihilated"] and p["normalization"]["passed"]),
    Entry("fundsol-even", ("fundsol",) + _sig(4, 1) + ("--l", "2"), exact=True,
          check=lambda p: p["annihilated"] is True),
    Entry("spectrum-osc", ("spectrum",) + _sig(3, 1) + ("--V", "osc", "--jmax", "2", "--kmax", "2"),
          exact=True, check=lambda p: _levels(3, 1)(p["rows"])),
    Entry("spectrum-osc-csv", ("spectrum",) + _sig(2, 2) + ("--V", "osc", "--jmax", "1", "--kmax", "2",
                                                             "--format", "csv"),
          exact=True, csv=True, check=_levels(2, 2)),
    Entry("spectrum-fd", ("spectrum",) + _sig(3, 0) + ("--V", "poly([0,1/2])", "--jmax", "1", "--kmax", "1"),
          check=lambda p: _levels(3, 0, 1e-6)(p["rows"])),
    Entry("spectrum-fd-csv", ("spectrum",) + _sig(3, 1) + ("--V", "poly([0,1/2])", "--jmax", "1",
                                                            "--kmax", "1", "--format", "csv"),
          csv=True, check=_levels(3, 1, 1e-6)),
    Entry("bochner-half", ("bochner",) + _sig(3, 1) + ("--k", "1", "--profile", "exp(1/2)"),
          check=_bochner(1, 1, 0.5)),
    Entry("bochner-one", ("bochner",) + _sig(4, 1) + ("--k", "0", "--profile", "exp(1)"),
          check=_bochner(2, 0, 1.0)),
    Entry("mehler-odd", ("mehler",) + _sig(3, 1) + ("--kmax", "40", "--seed", "7"),
          check=lambda p: p["passed"] is True and p["residual"] < p["tolerance"]),
    Entry("mehler-limit", ("mehler",) + _sig(4, 1) + ("--kmax", "40", "--seed", "3"),
          check=lambda p: p["passed"] is True and p["residual"] < p["tolerance"]),
    Entry("reduce-gaussian", ("reduce-integral",) + _sig(3, 1) + ("--profile", "exp(1)"),
          check=_gaussian_integral(1)),
    Entry("reduce-gaussian-even-negative", ("reduce-integral",) + _sig(2, 2) + ("--profile", "exp(1)"),
          check=_gaussian_integral(-2)),
    Entry("reduce-gaussian-odd-negative", ("reduce-integral",) + _sig(1, 1) + ("--profile", "exp(1)"),
          check=_gaussian_integral(-1)),
    Entry("verify-scalar", ("verify-all", "--seed", "7", "--suite", "scalar-exact"),
          check=lambda p: p["passed"] is True),
    Entry("verify-grassmann-radial", ("verify-all", "--seed", "11", "--suite", "grassmann-algebra",
                                      "--suite", "radial-calculus"),
          check=lambda p: p["passed"] is True),
    Entry("verify-harmonics", ("verify-all", "--seed", "7", "--suite", "harmonics-decomposition"),
          check=lambda p: p["passed"] is True),
    Entry("verify-integrate", ("verify-all", "--seed", "5", "--suite", "integrate-pizzetti"),
          check=lambda p: p["passed"] is True),
    Entry("invalid-signature-cap", ("dims",) + _sig(9, 1) + ("--k", "2"), expect=2, check=_error),
    Entry("invalid-fischer-M0", ("fischer",) + _sig(2, 1) + ("--poly", "x1^2"), expect=2, check=_error),
    Entry("invalid-csv-single", ("dims",) + _sig(3, 1) + ("--k", "2", "--format", "csv"),
          expect=2, check=_error),
    Entry("invalid-mehler-order", ("mehler",) + _sig(3, 1) + ("--kmax", "99"), expect=2, check=_error),
    Entry("invalid-profile", ("reduce-integral",) + _sig(3, 1) + ("--profile", "bogus(1)"),
          expect=2, check=_error),
    Entry("invalid-fundsol-M0", ("fundsol",) + _sig(2, 1) + ("--l", "1"), expect=2, check=_error),
]

KNOWN_DEFECTS: List[Entry] = [
    Entry("defect-pizzetti-out-of-range", ("pizzetti",) + _sig(3, 1) + ("--poly", "x4"),
          expect=2, check=_error),
    Entry("defect-divergent-integral", ("reduce-integral",) + _sig(3, 0) + ("--profile", "pow(1)"),
          expect=2, check=_error),
    Entry("defect-bochner-flat", ("bochner",) + _sig(3, 1) + ("--k", "1", "--profile", "exp(0)"),
          expect=2, check=_error),
    Entry("defect-bochner-growing", ("bochner",) + _sig(3, 1) + ("--k", "1", "--profile", "exp(-1)"),
          expect=2, check=_error),
    Entry("defect-negative-rmax", ("spectrum",) + _sig(3, 0) + ("--V", "poly([0,1/2])", "--jmax", "1",
                                                                 "--kmax", "1", "--rmax", "-5"),
          expect=2, check=_error),
]

ROUND_GOOD = 15     # good entries per round


def cli_round(rng: random.Random) -> List[Entry]:
    """All known defects plus ROUND_GOOD good entries, taken one per command
    group in turn (groups in a fixed order, entries drawn by the seed), so
    every round has the same mix of commands and of defects (one of them slow)."""
    groups = {}
    for entry in CORPUS:
        groups.setdefault("invalid" if entry.expect == 2 else entry.argv[0], []).append(entry)
    for members in groups.values():
        rng.shuffle(members)
    order = sorted(groups)
    good = [groups[g][i // len(order) % len(groups[g])]
            for i, g in zip(range(ROUND_GOOD), itertools.cycle(order))]
    calls = good + list(KNOWN_DEFECTS)
    rng.shuffle(calls)
    return calls


def parse(entry: Entry, stdout: str):
    if entry.csv and entry.expect == 0:
        return list(csv.DictReader(io.StringIO(stdout)))
    return json.loads(stdout)


def judge(entry: Entry, code: int, stdout: str, golden: Optional[dict]) -> tuple:
    """(ok, reason): exit code, output check and, where pinned, stdout bytes."""
    if code != entry.expect:
        return False, f"exit {code}, expected {entry.expect}"
    try:
        payload = parse(entry, stdout)
        passed = entry.check is None or bool(entry.check(payload))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable output: {exc!r}"
    if not passed:
        return False, "output check failed"
    if golden is not None:
        if golden.get("exit") != code:
            return False, "snapshot: exit code differs"
        if "stdout" in golden and golden["stdout"] != stdout:
            return False, "snapshot: stdout differs"
    return True, ""


def child_env(root) -> dict:
    """Environment of a CLI child: the checkout's sources, default tolerance."""
    env = dict(os.environ)
    env.pop("SUPERHARM_TOL", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(root, argv, prefix=None, timeout=120.0) -> tuple:
    """Run one fresh CLI process; (exit code, stdout, stderr, wall seconds)."""
    cmd = [sys.executable] + (prefix or ["-m", "superharm.cli"]) + list(argv)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def load_golden(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
