"""Harmonic decomposition: dimension counts, bases, Fischer splitting, kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superharm.scalar import ExactScalar, sphere_area
from superharm.superpoly import (
    Signature,
    SuperPolynomial,
    euler,
    laplace_beltrami,
    laplacian,
    pairing,
    r_squared,
)
from superharm.harmonics import (
    UnsupportedSignatureError,
    _rref_nullspace,
    dim_harmonics,
    dim_polynomials,
    fischer_decompose,
    fischer_reconstruct,
    harmonic_basis,
    kernel_values,
    monomial_keys,
    reproducing_kernel,
)

SIGS = [Signature(1, 0), Signature(3, 0), Signature(1, 1), Signature(2, 1),
        Signature(3, 1), Signature(2, 2)]
# signatures where the Fischer decomposition / kernel normalization exists
SIGS_OK = [s for s in SIGS if not (s.superdim <= 0 and s.superdim % 2 == 0)]
DEGENERATE = [s for s in SIGS if s.superdim <= 0 and s.superdim % 2 == 0]


def random_homogeneous(sig, rnd, deg, nterms=6):
    keys = monomial_keys(sig, deg)
    p = SuperPolynomial.zero(sig)
    for _ in range(nterms):
        key = keys[rnd.randrange(len(keys))]
        c = Fraction(rnd.randrange(-4, 5))
        if c:
            p = p + SuperPolynomial(sig, {key: c})
    return p


# -- dimensions ---------------------------------------------------------------


def test_dim_polynomials_counts_monomials():
    for sig in SIGS:
        for k in range(6):
            assert dim_polynomials(sig, k) == len(monomial_keys(sig, k))


def test_dim_harmonics_known_values():
    assert dim_harmonics(Signature(3, 1), 1) == 5
    assert dim_harmonics(Signature(3, 1), 2) == 12
    # purely bosonic m=3: classical 2k+1
    for k in range(6):
        assert dim_harmonics(Signature(3, 0), k) == 2 * k + 1
    # m=1 bosonic: only 1, x
    assert [dim_harmonics(Signature(1, 0), k) for k in range(4)] == [1, 1, 0, 0]


def test_dim_harmonics_is_polynomial_difference():
    for sig in SIGS:
        for k in range(2, 7):
            assert dim_harmonics(sig, k) == (
                dim_polynomials(sig, k) - dim_polynomials(sig, k - 2)
            )


# -- harmonic bases -----------------------------------------------------------


@pytest.mark.parametrize("sig", SIGS)
def test_basis_matches_dimension_and_is_harmonic(sig):
    M = sig.superdim
    for k in range(6):
        basis = harmonic_basis(sig, k)
        assert len(basis) == dim_harmonics(sig, k)
        for H in basis:
            assert laplacian(H).is_zero
            assert (euler(H) - H * Fraction(k)).is_zero
            # spherical eigenvalue -k(M - 2 + k)
            lam = Fraction(-k * (M - 2 + k))
            assert (laplace_beltrami(H) - H * lam).is_zero


def test_basis_elements_linearly_independent():
    sig = Signature(2, 1)
    k = 3
    basis = list(harmonic_basis(sig, k))
    keys = monomial_keys(sig, k)
    rows = [[Fraction(H.coeff(*key).to_text()) for key in keys] for H in basis]
    import sympy

    assert sympy.Matrix(rows).rank() == len(basis)


# m 1-4, n 0-3 (M from -5 to 4, M in -2N included), k <= 6 (k <= 5 where m + 2n > 6)
CK_SIGS = [Signature(m, n) for m in range(1, 5) for n in range(4)]


def _degrees(sig):
    return range(7 if sig.m + 2 * sig.n <= 6 else 6)


def _low_monomials(sig, k):
    """The degree-k monomials of x_m-degree <= 1, in basis order."""
    return [mu for mu in monomial_keys(sig, k) if mu[0][-1] <= 1]


def _elimination_basis(sig, k):
    """The degree-k harmonics as the nullspace of the Laplacian's monomial
    matrix (rows: degree k - 2 monomials), by the reference elimination."""
    cols = monomial_keys(sig, k)
    rindex = {key: i for i, key in enumerate(monomial_keys(sig, k - 2))}
    rows = [{} for _ in rindex]
    for ci, key in enumerate(cols):
        for rkey, c in laplacian(SuperPolynomial(sig, {key: Fraction(1)})).terms.items():
            rows[rindex[rkey]][ci] = Fraction(c.to_text())
    return [SuperPolynomial(sig, {cols[i]: q for i, q in enumerate(v) if q})
            for v in _rref_nullspace(rows, len(cols))]


@pytest.mark.parametrize("sig", CK_SIGS, ids=str)
def test_basis_part_of_low_xm_degree_is_its_monomial(sig):
    """H_mu is the one harmonic whose part of x_m-degree <= 1 is mu."""
    for k in _degrees(sig):
        basis = harmonic_basis(sig, k).elements
        mus = _low_monomials(sig, k)
        assert len(basis) == len(mus) == dim_harmonics(sig, k)
        for H, mu in zip(basis, mus):
            assert laplacian(H).is_zero
            low = {key: c for key, c in H.terms.items() if key[0][-1] <= 1}
            assert SuperPolynomial(sig, low) == SuperPolynomial(sig, {mu: Fraction(1)})


@pytest.mark.parametrize("sig", [s for s in CK_SIGS if s.n == 0], ids=str)
def test_bosonic_basis_is_the_elimination_basis(sig):
    """At n = 0 the elimination's free columns are the monomials with
    x_m-exponent <= 1, so both bases agree term for term, in order."""
    for k in _degrees(sig):
        got = [list(H.terms.items()) for H in harmonic_basis(sig, k)]
        assert got == [list(H.terms.items()) for H in _elimination_basis(sig, k)], k


@pytest.mark.parametrize("sig", [s for s in CK_SIGS if s.n >= 1], ids=str)
def test_super_basis_spans_the_elimination_kernel(sig):
    """Stacked, the two bases have rank dim_harmonics: the new rows are in
    echelon form on the low monomials (each has exactly its mu there), and
    every elimination row reduces to zero against them."""
    for k in _degrees(sig):
        basis = harmonic_basis(sig, k).elements
        old = _elimination_basis(sig, k)
        assert len(old) == len(basis) == dim_harmonics(sig, k)
        pivots = dict(zip(_low_monomials(sig, k), basis))
        for G in old:
            rest = G
            for mu, c in G.terms.items():
                if mu in pivots:
                    rest = rest - pivots[mu] * c
            assert rest.is_zero, (k, G.to_text())


# -- Fischer decomposition ----------------------------------------------------


@pytest.mark.parametrize("sig", SIGS_OK)
def test_fischer_round_trip_random(sig):
    rnd = random.Random(71 + sig.m + 10 * sig.n)
    for deg in range(0, 7):
        f = random_homogeneous(sig, rnd, deg)
        blocks = fischer_decompose(f)
        for j, H in blocks:
            assert laplacian(H).is_zero
        assert (fischer_reconstruct(sig, blocks) - f).is_zero


def _fischer_products(f, d):
    """The Fischer recursion with R^{2j} H_j as ``r_squared`` powers through
    the polynomial product: the oracle for ``fischer_decompose``'s harmonic
    projections of lap^j f, summed by Horner in R^2 over integer numerators."""
    if f.is_zero:
        return []
    M = f.sig.superdim
    R2 = r_squared(f.sig)
    blocks, top = [], f
    for i, G in _fischer_products(laplacian(f), d - 2):
        j = i + 1
        H = G * Fraction(1, 2 * j * (M + 2 * d - 2 * j - 2))
        blocks.append((j, H))
        top = top - R2**j * H
    return ([(0, top)] if top else []) + blocks


def _fischer_gap_inputs():
    """Homogeneous inputs whose Fischer blocks skip some j (a zero block
    between two nonzero ones, or below the only one)."""
    for sig in (Signature(3, 1), Signature(2, 0), Signature(1, 2)):
        R2 = r_squared(sig)
        H5, H3 = harmonic_basis(sig, 5).elements[-1], harmonic_basis(sig, 3).elements[0]
        x1 = SuperPolynomial.coordinate(sig, 1)
        yield H5 + R2**2 * x1                       # j = 0 and 2
        yield R2**3 * x1                            # j = 3 alone
        yield R2 * H5 + R2**3 * (x1 * Fraction(-2, 3))   # j = 1 and 3
        yield R2**2 * H3 * ExactScalar.pi_pow(1)    # j = 2 alone, pi coefficients


def test_fischer_horner_matches_products():
    """The gap inputs and a grid of random inputs against ``_fischer_products``:
    blocks ascend in j, and the gap inputs keep exactly their nonzero blocks."""
    rnd = random.Random(2007)
    cases = list(_fischer_gap_inputs())
    for m in range(1, 5):
        for n in range(4):
            sig = Signature(m, n)
            if sig.superdim <= 0 and sig.superdim % 2 == 0:
                continue
            for deg in range(0, 9, 2 if m + n > 4 else 1):
                cases.append(random_homogeneous(sig, rnd, deg, nterms=4))
    sigs = {f.sig for f in cases}
    assert Signature(1, 2) in sigs  # M = -3
    for f in cases:
        got = fischer_decompose(f)
        assert got == _fischer_products(f, f.degree()), f.to_text()
        assert [j for j, _ in got] == sorted(j for j, _ in got)
    gaps = [[j for j, _ in fischer_decompose(f)] for f in _fischer_gap_inputs()]
    assert gaps[:4] == [[0, 2], [3], [1, 3], [2]]


_FISCHER_COEFFS = [ExactScalar.parse(t) for t in (
    "1", "-2/3", "5/4", "pi^(1/2)", "-1/3*pi^(-1/2)", "1 + pi",
    "2/5 + -3*pi^(1/2)", "1/6*pi^-1 + -7/2 + pi^(3/2)")]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 8), st.integers(0, 5),
       st.integers(0, 10**6))
def test_fischer_matches_products_on_random_inputs(m, n, deg, nterms, seed):
    """Every non-degenerate M from -5 to 4, the negative odd ones included,
    and multi-term pi coefficients: blocks ascend in j and none is zero."""
    sig = Signature(m, n)
    assume(not (sig.superdim <= 0 and sig.superdim % 2 == 0))
    rnd = random.Random(seed)
    keys = monomial_keys(sig, deg)
    f = SuperPolynomial(sig, {keys[rnd.randrange(len(keys))]: rnd.choice(_FISCHER_COEFFS)
                              for _ in range(nterms)})
    got = fischer_decompose(f)
    assert got == _fischer_products(f, deg)
    assert [j for j, _ in got] == sorted({j for j, _ in got})
    assert all(H for _, H in got)


@pytest.mark.parametrize("terms", [{((2, 0, 0, 0, 0, 0), 0): 1},
                                   {((2, 0, 0, 0, 0, 0), 0): 1, ((0, 0, 0, 1, 1, 0), 0): 1}])
def test_fischer_refuses_doubled_polynomials(terms):
    """The blocks live on one copy: a doubled polynomial is refused, not split
    in the first copy with the second copy's variables read as constants."""
    f = SuperPolynomial(Signature(3, 1), terms, 2)
    with pytest.raises(ValueError, match="single-copy"):
        fischer_decompose(f)


def test_fischer_classical_example():
    # x1^2 in two bosonic variables: R^2/2 plus the harmonic (x1^2 - x2^2)/2
    sig = Signature(2, 0)
    f = SuperPolynomial(sig, {((2, 0), 0): Fraction(1)})
    blocks = dict(fischer_decompose(f))
    half = Fraction(1, 2)
    assert (blocks[1] - SuperPolynomial.constant(sig, half)).is_zero
    want0 = SuperPolynomial(sig, {((2, 0), 0): half, ((0, 2), 0): -half})
    assert (blocks[0] - want0).is_zero


def test_fischer_on_harmonic_is_identity():
    sig = Signature(3, 1)
    for k in range(4):
        for H in harmonic_basis(sig, k):
            blocks = fischer_decompose(H)
            assert len(blocks) == 1 and blocks[0][0] == 0
            assert (blocks[0][1] - H).is_zero


def test_fischer_dimension_bookkeeping():
    for sig in SIGS_OK:
        for k in range(7):
            total = sum(dim_harmonics(sig, k - 2 * j) for j in range(k // 2 + 1))
            assert total == dim_polynomials(sig, k)


@pytest.mark.parametrize("sig", DEGENERATE)
def test_fischer_degenerate_superdimension_raises(sig):
    f = r_squared(sig)
    with pytest.raises(UnsupportedSignatureError):
        fischer_decompose(f)
    with pytest.raises(UnsupportedSignatureError):
        reproducing_kernel(sig, 1)


# -- reproducing kernel -------------------------------------------------------


def test_kernel_closed_forms_k0_k1():
    for sig in SIGS_OK:
        M = sig.superdim
        inv_sigma = ExactScalar.rational(1) / sphere_area(M)
        F0 = reproducing_kernel(sig, 0)
        assert (F0 - SuperPolynomial.constant(sig, inv_sigma, copies=2)).is_zero
        if M == 2:
            continue  # k=1 limit form checked separately below
        F1 = reproducing_kernel(sig, 1)
        want = pairing(sig) * (inv_sigma * Fraction(M))
        assert (F1 - want).is_zero


def test_kernel_m2_limit():
    sig = Signature(4, 1)
    assert sig.superdim == 2
    # the limit kernel at k=1: 2*T_1 => F_1 = <x,y>/pi
    F1 = reproducing_kernel(sig, 1)
    want = pairing(sig) * (ExactScalar.rational(1) / sphere_area(2))
    assert (F1 - want * Fraction(2)).is_zero


REPRO_CASES = [
    (Signature(1, 0), 4), (Signature(3, 0), 4), (Signature(2, 0), 4),
    (Signature(1, 1), 4), (Signature(3, 1), 4), (Signature(1, 2), 4),
    (Signature(4, 1), 3),
]


@pytest.mark.parametrize("sig,kmax", REPRO_CASES)
def test_kernel_reproduces_harmonics_under_sphere_integral(sig, kmax):
    from superharm.integrate import pizzetti

    for k in range(kmax + 1):
        Fk = reproducing_kernel(sig, k)
        for l in range(kmax + 1):
            for H in harmonic_basis(sig, l):
                got = pizzetti(H.embed_doubled() * Fk, copy=0)
                want = H.to_y_copy() if k == l else SuperPolynomial.zero(sig, 2)
                assert (got - want).is_zero


# the smallest signature of each super-dimension M = m - 2n
ORACLE_SIGS = [Signature(1, 2), Signature(1, 1), Signature(1, 0), Signature(2, 0),
               Signature(3, 0), Signature(4, 0), Signature(5, 0), Signature(7, 0)]


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=lambda s: f"M{s.superdim}")
def test_reproducing_kernel_matches_sympy_gegenbauer(sig):
    """The exact kernel against sympy's C_k^{(M-2)/2} (2 T_k at M = 2):
    F_k = (2k+M-2)/(M-2) / sigma_M * sum_p c_p <x,y>^p (Rx^2 Ry^2)^{(k-p)/2},
    for k <= 6 (k <= 5 on R^7, where k = 6 alone takes seconds)."""
    import sympy

    M = sig.superdim
    x = sympy.Symbol("x")
    inv_sigma = 1 / sphere_area(M)
    t = pairing(sig)
    u = r_squared(sig, 2, 0) * r_squared(sig, 2, 1)
    for k in range(6 if sig.m == 7 else 7):
        if M != 2:
            poly, pre = sympy.gegenbauer(k, sympy.Rational(M - 2, 2), x), Fraction(2 * k + M - 2, M - 2)
        else:
            poly, pre = (2 * sympy.chebyshevt(k, x) if k else sympy.Integer(1)), 1
        want = SuperPolynomial.zero(sig, 2)
        for (p,), c in sympy.Poly(poly, x).terms():
            c = Fraction(int(c.p), int(c.q)) * pre
            want = want + t**p * u ** ((k - p) // 2) * (inv_sigma * c)
        assert reproducing_kernel(sig, k) == want, (M, k)


def test_kernel_value_matches_exact_kernel_bosonically():
    rnd = random.Random(5)
    for sig in [Signature(3, 0), Signature(4, 0), Signature(5, 0)]:
        M = sig.superdim
        for k in range(5):
            Fk = reproducing_kernel(sig, k)
            for _ in range(3):
                x = [rnd.uniform(-1, 1) for _ in range(sig.m)]
                y = [rnd.uniform(-1, 1) for _ in range(sig.m)]
                t = sum(a * b for a, b in zip(x, y))
                u = sum(a * a for a in x) * sum(b * b for b in y)
                direct = Fk.evaluate_bosonic(x + y).coeff(0).real
                assert abs(kernel_values(M, k, t, u)[k] - direct) < 1e-10


def test_kernel_value_chebyshev_route():
    # M = 2 numeric path agrees with the exact limit kernel
    sig = Signature(4, 1)
    rnd = random.Random(9)
    for k in range(4):
        Fk = reproducing_kernel(sig, k)
        for _ in range(3):
            x = [rnd.uniform(-1, 1) for _ in range(4)]
            y = [rnd.uniform(-1, 1) for _ in range(4)]
            t = sum(a * b for a, b in zip(x, y))
            u = sum(a * a for a in x) * sum(b * b for b in y)
            # evaluate the doubled polynomial at purely bosonic points
            direct = Fk.evaluate_bosonic(x + y).coeff(0).real
            assert abs(kernel_values(2, k, t, u)[k] - direct) < 1e-10
