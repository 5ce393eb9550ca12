"""The ``verify-all --seed 7`` report keeps every pass/fail row."""

from superharm.verify import run_all

# (suite, [checks in report order]); every row passes at seed 7.
SEED_7_ROWS = [
    ("grassmann-algebra", ["product-associativity", "graded-commutativity",
                           "derivative-anticommutation", "top-coefficient-vs-laplacian-power",
                           "fermi-norm-central"]),
    ("harmonics-decomposition", ["tangential-laplacian-eigenvalue",
                                 "dimension-formula-vs-kernel-rank", "fischer-round-trip",
                                 "kernel-reproduces-harmonics"]),
    ("integrate-pizzetti", ["radius-collapse", "rotation-invariance", "harmonic-orthogonality",
                            "ball-laplacian-vs-sphere-euler", "first-green-identity",
                            "mean-value-property"]),
    ("operators-sl2", ["sl2-laplacian-norm-bracket", "sl2-laplacian-euler-bracket",
                       "sl2-norm-euler-bracket", "divergence-of-x",
                       "laplace-beltrami-from-rotations",
                       "laplace-beltrami-commutes-with-rotations"]),
    ("radial-calculus", ["substitution-is-multiplicative",
                         "radial-commutes-with-tangential-laplacian", "radius-power-law",
                         "radial-factor-under-sphere-functional", "fundamental-solution-chain",
                         "osp-invariance-of-radial-functions"]),
    ("scalar-exact", ["recip-gamma-recurrence", "pochhammer-vs-gamma", "bessel-small-argument"]),
    ("spectrum-reduction", ["oscillator-eigenprofile-residual", "oscillator-numeric-levels",
                            "degeneracy-bookkeeping"]),
    ("zonal-transform", ["sphere-transform-vs-direct-integral", "quadrature-transform-vs-exact",
                         "two-point-invariance", "kernel-series-two-forms"]),
]


def test_verify_all_seed_7_rows_pinned():
    report = run_all(seed=7)
    got = [(s["suite"], c["check"], c["passed"]) for s in report["suites"] for c in s["checks"]]
    want = [(suite, check, True) for suite, checks in SEED_7_ROWS for check in checks]
    assert len(want) == 37
    assert got == want
    assert report["passed"]


def test_report_keys():
    # every check keeps its own threshold: the report carries no tolerance
    report = run_all(seed=0, names=["scalar-exact"])
    assert set(report) == {"seed", "suites", "passed"}
