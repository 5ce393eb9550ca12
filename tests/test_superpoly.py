"""Operator identities on the polynomial algebra with anticommuting variables."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import superharm.superpoly as sp
from superharm.grassmann import NumericGrassmann, blade_mul
from superharm.integrate import pizzetti
from superharm.radial import RadialProfile
from superharm.scalar import ExactScalar
from superharm.superpoly import (
    Signature,
    SuperPolynomial,
    dbos,
    dferm,
    euler,
    fermi_norm_poly,
    gradient,
    laplace_beltrami,
    laplace_beltrami_via_generators,
    laplacian,
    metric_entries,
    mul_coordinate,
    mul_r2,
    nabla_lower,
    nabla_pair_with_x,
    nabla_raised,
    osp_generator,
    pairing,
    r_squared,
    raise_vector,
    vector_pairing,
)

SIGS = [Signature(1, 0), Signature(3, 0), Signature(1, 1), Signature(2, 1),
        Signature(3, 1), Signature(2, 2)]


def random_poly(sig, rnd, deg=4, nterms=5, copies=1):
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


# -- construction and text form ----------------------------------------------


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 1)
    assert Signature(3, 1).superdim == 1
    assert Signature(2, 2).total_vars == 6
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="length"):
        SuperPolynomial(sig, {((1,), 0): 1})
    with pytest.raises(ValueError, match="outside"):
        SuperPolynomial(sig, {((0, 0), 0b100): 1})
    # results never store a zero coefficient, and zero is falsy
    x1, f1 = SuperPolynomial.coordinate(sig, 1), SuperPolynomial.coordinate(sig, 3)
    assert (x1 - x1).terms == {} and (f1 * f1).terms == {}
    assert not (x1 - x1) and x1
    with pytest.raises(ValueError):
        x1 + SuperPolynomial.coordinate(Signature(3, 1), 1)


def test_parse_and_to_text_round_trip():
    sig = Signature(2, 1)
    f = SuperPolynomial.parse("3/2*pi^(1/2) x1^2 f1 f2 + (1 + -2*pi^(-1/2)) x2 + -4", sig)
    assert SuperPolynomial.parse(f.to_text(), sig) == f
    assert f.coeff((0, 1), 0) == ExactScalar({0: 1, -1: -2})


def test_parse_refuses_empty_or_unclosed_coefficient():
    # both used to parse as the zero polynomial
    sig = Signature(3, 1)
    for text in ("(1", "( ) x1^2", "() + 1", "(1 + pi x1"):
        with pytest.raises(ValueError):
            SuperPolynomial.parse(text, sig)
    assert SuperPolynomial.parse("(1) x1", sig) == SuperPolynomial.coordinate(sig, 1)


def test_parse_refuses_blank_text():
    # text with no terms used to parse as the zero polynomial; "0" still does
    sig = Signature(3, 1)
    for text in ("", "  ", "+"):
        with pytest.raises(ValueError, match="empty polynomial"):
            SuperPolynomial.parse(text, sig)
    assert SuperPolynomial.parse("0", sig).is_zero


def test_parse_bare_monomial_sign_and_unknown_factor():
    sig = Signature(3, 1)
    # a leading '-' on a bare monomial used to fail with "invalid literal for int()"
    assert SuperPolynomial.parse("-x1^2", sig) == SuperPolynomial.parse("-1 x1^2", sig)
    assert SuperPolynomial.parse("-x1 f1 + x2", sig) == SuperPolynomial.parse("-1 x1 f1 + 1 x2", sig)
    # a lone leading '-' used to be refused with "unknown factor '-'"
    assert SuperPolynomial.parse("- x1^2", sig) == SuperPolynomial.parse("-1 x1^2", sig)
    assert SuperPolynomial.parse("- (1/2) x1^2", sig) == SuperPolynomial.parse("-1/2 x1^2", sig)
    for text, factor in (("x1^q", "x1^q"), ("xq", "xq"), ("x1 -f1", "-f1"), ("^2", "^2"),
                         ("x1 + -", "-"), ("-", "-")):
        with pytest.raises(ValueError, match=re.escape(f"unknown factor {factor!r}")):
            SuperPolynomial.parse(text, sig)


def test_parse_binary_minus():
    # a ' - ' after a term used to be refused with "unknown factor '-'"
    sig = Signature(3, 1)
    for copies in (1, 2):
        for minus, plus in (("x1^2 - 2 x2^2", "x1^2 + -2 x2^2"), ("x1^2 - x2^2", "x1^2 + -x2^2"),
                            ("(1/2 - pi) x1 - f1 f2", "(1/2 + -pi) x1 + -1 f1 f2"),
                            ("x1 - (1/2) x2", "x1 + -1/2 x2"),
                            ("x1 - (1/2 - pi) x2", "x1 + (-1/2 + pi) x2")):
            assert SuperPolynomial.parse(minus, sig, copies) == SuperPolynomial.parse(plus, sig, copies)
    assert (SuperPolynomial.parse("x1 y1 - 2 f1 g1", sig, 2)
            == SuperPolynomial.parse("x1 y1 + -2 f1 g1", sig, 2))


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_text_round_trip_random(seed):
    rnd = random.Random(seed)
    sig = SIGS[seed % len(SIGS)]
    f = random_poly(sig, rnd)
    assert SuperPolynomial.parse(f.to_text(), sig) == f


def test_doubled_round_trip():
    sig = Signature(2, 1)
    rnd = random.Random(3)
    f = random_poly(sig, rnd, copies=2)
    assert SuperPolynomial.parse(f.to_text(), sig, copies=2) == f


def test_parity_split_exact():
    sig = Signature(2, 2)
    f = random_poly(sig, random.Random(8), nterms=8)
    even = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if not k[1].bit_count() & 1})
    odd = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if k[1].bit_count() & 1})
    assert even + odd == f


def test_homogeneous_components_sum():
    sig = Signature(2, 1)
    f = random_poly(sig, random.Random(12), nterms=8)
    parts = f.homogeneous_components()
    total = SuperPolynomial.zero(sig)
    for d, p in parts.items():
        assert p.degree() == d
        total = total + p
    assert total == f


# -- pairing and norm ---------------------------------------------------------


def test_pairing_components():
    sig = Signature(1, 1)
    p = pairing(sig)
    # x1*y1 term
    assert p.coeff((1, 1), 0) == 1
    # -1/2 f1 g2  and  +1/2 f2 g1
    assert p.coeff((0, 0), 0b1001) == Fraction(-1, 2)
    assert p.coeff((0, 0), 0b0110) == Fraction(1, 2)


def test_pairing_symmetric():
    # swapping the two supervectors leaves <x,y> unchanged
    for sig in [Signature(1, 1), Signature(2, 2)]:
        m, n = sig.m, sig.n
        p = pairing(sig)
        swapped = {}
        for (bos, mask), c in p.terms.items():
            nb = bos[m:] + bos[:m]
            low = mask & ((1 << (2 * n)) - 1)
            high = mask >> (2 * n)
            nm = (low << (2 * n)) | high
            # every term of the pairing is degree <= 1 in each block, so the
            # blade swap never generates a reordering sign within a block;
            # crossing signs: each term has one x-generator and one y-generator
            sign = -1 if (low.bit_count() & 1) and (high.bit_count() & 1) else 1
            swapped[(nb, nm)] = c * sign
        assert SuperPolynomial(sig, swapped, 2) == p


def test_r_squared_shape():
    sig = Signature(1, 1)
    R2 = r_squared(sig)
    assert R2.coeff((2,), 0) == 1
    assert R2.coeff((0,), 0b11) == -1
    assert r_squared(Signature(2, 0)) == SuperPolynomial.parse("1 x1^2 + 1 x2^2", Signature(2, 0))


@pytest.mark.parametrize("n", [1, 2])
def test_r_squared_top_power(n):
    # (R^2)^n contains (-1)^n n! f_1...f_{2n} as its top Grassmann part
    sig = Signature(1, n)
    top = r_squared(sig) ** n
    import math
    assert top.coeff((0,) * 1, (1 << (2 * n)) - 1) == Fraction((-1) ** n * math.factorial(n))


def test_norm_via_pairing():
    # <x,x> with both copies the same variables equals R^2
    sig = Signature(2, 1)
    coords = [SuperPolynomial.coordinate(sig, k) for k in range(1, sig.total_vars + 1)]
    assert vector_pairing(coords, coords) == r_squared(sig)


def test_index_gymnastics():
    # sum_j X^j Y_j = sum_i (-1)^{[i]} X_i Y^i on the doubled algebra
    for sig in [Signature(1, 1), Signature(2, 2)]:
        m, n = sig.m, sig.n
        X = [SuperPolynomial.coordinate(sig, k, 2, 0) for k in range(1, sig.total_vars + 1)]
        Y = [SuperPolynomial.coordinate(sig, k, 2, 1) for k in range(1, sig.total_vars + 1)]
        Xr = raise_vector(X)
        Yr = raise_vector(Y)
        lhs = SuperPolynomial.zero(sig, 2)
        for xj, yj in zip(Xr, Y):
            lhs = lhs + xj * yj
        rhs = SuperPolynomial.zero(sig, 2)
        for i, (xi, yi) in enumerate(zip(X, Yr)):
            sgn = -1 if i >= m else 1
            rhs = rhs + xi * yi * Fraction(sgn)
        assert lhs == rhs


# -- first order derivatives --------------------------------------------------


def test_gradient_of_r_squared_is_2x():
    for sig in SIGS:
        grad = gradient(r_squared(sig))
        for k in range(1, sig.total_vars + 1):
            assert grad[k - 1] == SuperPolynomial.coordinate(sig, k) * 2, (sig, k)


def test_gradient_fermionic_slot_placement():
    # gradient of f1 has -2 in (lower) slot m+2 and nothing else
    sig = Signature(2, 1)
    f1 = SuperPolynomial.coordinate(sig, 3)
    grad = gradient(f1)
    for k, gk in enumerate(grad, start=1):
        if k == sig.m + 2:
            assert gk == SuperPolynomial.constant(sig, -2)
        else:
            assert gk.is_zero


def test_raised_vs_lower_gradient():
    # nabla^j = (-1)^{[j]} d_{X_j}: check via <nabla f, nabla g> consistency
    sig = Signature(1, 1)
    rnd = random.Random(2)
    f = random_poly(sig, rnd)
    m = sig.m
    for k in range(1, sig.total_vars + 1):
        lower = nabla_lower(f, k)
        raised = nabla_raised(f, k)
        if k <= m:
            assert lower == raised
    # and the raising map is consistent: raise_vector(lower) == raised list
    lows = [nabla_lower(f, k) for k in range(1, sig.total_vars + 1)]
    raiseds = [nabla_raised(f, k) for k in range(1, sig.total_vars + 1)]
    assert raise_vector(lows) == raiseds


def test_raised_fermionic_sign():
    # d_{X^{m+1}} X_{m+1} = -1, pinned apart from the metric table
    sig = Signature(2, 1)
    assert nabla_raised(SuperPolynomial.coordinate(sig, 3), 3) == SuperPolynomial.constant(sig, -1)


_R22 = Signature(2, 1)
_V22 = [SuperPolynomial.coordinate(_R22, k) for k in range(1, 5)]


@pytest.mark.parametrize("call", [
    lambda: raise_vector(_V22[:-1]),
    lambda: raise_vector(_V22 + _V22[:1]),
    lambda: raise_vector([]),
    lambda: vector_pairing(_V22[:-1], _V22[:-1]),
    lambda: vector_pairing([], []),
    lambda: vector_pairing(_V22, _V22[:-1]),
    lambda: vector_pairing(_V22[:-1], _V22),
], ids=["raise-short", "raise-long", "raise-empty", "pair-short", "pair-empty",
        "pair-short-second", "pair-short-first"])
def test_supervector_length_refused(call):
    with pytest.raises(ValueError):
        call()


def test_mixed_partials_commute_bosonic_anticommute_fermionic():
    sig = Signature(2, 1)
    f = random_poly(sig, random.Random(4), nterms=8)
    assert dbos(dbos(f, 1), 2) == dbos(dbos(f, 2), 1)
    assert dferm(dferm(f, 1), 2) == -dferm(dferm(f, 2), 1)


# -- second order operators ---------------------------------------------------


@pytest.mark.parametrize("sig", SIGS)
def test_laplacian_of_r_squared(sig):
    assert laplacian(r_squared(sig)) == SuperPolynomial.constant(sig, 2 * sig.superdim)


@pytest.mark.parametrize("sig", SIGS)
def test_laplacian_of_r_fourth(sig):
    R2 = r_squared(sig)
    M = sig.superdim
    assert laplacian(R2 * R2) == R2 * (8 + 4 * M)


def _laplacian_composed(f, copy):
    """The definition sum_i d_i^2 - 4 sum_j df_{2j-1} df_{2j}, built from the
    first-order operators: the oracle for the one-pass ``laplacian``."""
    out = SuperPolynomial.zero(f.sig, f.copies)
    for i in range(1, f.sig.m + 1):
        out = out + dbos(dbos(f, i, copy), i, copy)
    for j in range(1, f.sig.n + 1):
        out = out + dferm(dferm(f, 2 * j, copy), 2 * j - 1, copy) * (-4)
    return out


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([(1, 0), (2, 0), (2, 1)]),
       st.integers(0, 10**6))
def test_laplacian_matches_composed_definition(m, n, copies_copy, seed):
    copies, copy = copies_copy
    sig = Signature(m, n)
    rnd = random.Random(seed)
    f = random_poly(sig, rnd, deg=6, nterms=rnd.randrange(1, 9), copies=copies)
    f = f + f * ExactScalar.pi_pow(rnd.choice([-1, 1, 2]))
    lap = laplacian(f, copy)
    assert lap == _laplacian_composed(f, copy)
    assert all(lap.terms.values())


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([(1, 0), (2, 0), (2, 1)]),
       st.integers(0, 8), st.integers(0, 10**6))
def test_mul_r2_matches_product(m, n, copies_copy, nterms, seed):
    """The one-pass R^2 f against the product with ``r_squared``; nterms = 0
    is the zero polynomial."""
    copies, copy = copies_copy
    sig = Signature(m, n)
    rnd = random.Random(seed)
    f = random_poly(sig, rnd, deg=6, nterms=nterms, copies=copies)
    f = f + f * ExactScalar.pi_pow(rnd.choice([-1, 1, 2]))
    got = mul_r2(f, copy)
    assert got == r_squared(sig, copies, copy) * f
    assert all(got.terms.values())
    assert got.is_zero == f.is_zero


def test_mul_r2_shares_coefficients():
    """A key reached once keeps f's coefficient object (+1) or its negation."""
    f = SuperPolynomial.parse("(1 + -2*pi^(-1/2)) x1", Signature(2, 1))
    c = f.terms[((1, 0), 0)]
    g = mul_r2(f)
    assert g.terms[((3, 0), 0)] is c and g.terms[((1, 2), 0)] is c
    assert g.terms[((1, 0), 3)] == -c


def _pairwise_product(f, g):
    """f g by its definition: every term pair through ``blade_mul`` and an
    ``ExactScalar`` product, summed per key."""
    out = {}
    for (ba, ma), ca in f.terms.items():
        for (bb, mb), cb in g.terms.items():
            sm = blade_mul(ma, mb)
            if sm is not None:
                key = (tuple(x + y for x, y in zip(ba, bb)), sm[1])
                out[key] = out.get(key, ExactScalar()) + ca * cb * sm[0]
    return SuperPolynomial(f.sig, out, f.copies)


# coefficients whose products cancel inside a pi-power sum
# ((1 - 2 pi^(-1/2)) (1 + 2 pi^(-1/2)) = 1 - 4/pi) or give the unit route
_PI_COEFFS = [ExactScalar.parse(t) for t in (
    "1", "-1", "1/2", "-3", "pi", "-2*pi^(-1/2)", "1 + -2*pi^(-1/2)", "1 + 2*pi^(-1/2)",
    "1/3*pi + -1 + pi^(-1/2)")]


def _pi_poly(sig, rnd, nterms, copies):
    nb = copies * sig.m
    terms = {}
    for _ in range(nterms):
        bos = [0] * nb
        for _ in range(rnd.randrange(3)):
            bos[rnd.randrange(nb)] += 1
        terms[(tuple(bos), rnd.randrange(1 << (copies * 2 * sig.n)))] = rnd.choice(_PI_COEFFS)
    return SuperPolynomial(sig, terms, copies)


@settings(max_examples=200)
@given(st.sampled_from([(1, 1), (2, 1), (3, 2)]), st.sampled_from([1, 2]),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6))
def test_product_matches_pairwise_definition(mn, copies, na, nb, seed):
    """The one-pass product against the pairwise definition, with multi-term
    pi coefficients; the odd part of a polynomial squares to zero."""
    sig = Signature(*mn)
    rnd = random.Random(seed)
    f, g = _pi_poly(sig, rnd, na, copies), _pi_poly(sig, rnd, nb, copies)
    got = f * g
    assert got == _pairwise_product(f, g)
    assert all(c for c in got.terms.values()) and all(all(c.terms.values()) for c in got.terms.values())
    odd = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if k[1].bit_count() % 2}, copies)
    assert (odd * odd).is_zero and _pairwise_product(odd, odd).is_zero
    assert (f * (g - g)).is_zero


def test_product_cancels_inside_a_coefficient():
    sig = Signature(1, 1)
    a = SuperPolynomial.parse("(1 + -2*pi^(-1/2)) x1 + f1", sig)
    b = SuperPolynomial.parse("(1 + 2*pi^(-1/2)) x1 + f2", sig)
    assert (a * b).to_text() == "1 f1 f2 + (1 + 2*pi^(-1/2)) x1 f1 + " \
        "(1 + -2*pi^(-1/2)) x1 f2 + (1 + -4*pi^-1) x1^2"
    assert a * b == _pairwise_product(a, b)


@pytest.mark.parametrize("pair", ["poly", "scalar", "grassmann", "profile"])
def test_difference_is_sum_of_negation(pair):
    """a - b is a + (-b), term for term and in order, in all four algebras;
    floats included, so the numeric results stay bit-identical."""
    rnd = random.Random(5)
    sig = Signature(2, 1)
    for _ in range(40):
        if pair == "poly":
            a, b = _pi_poly(sig, rnd, 5, 2), _pi_poly(sig, rnd, 5, 2)
        elif pair == "scalar":
            a, b = rnd.choice(_PI_COEFFS), rnd.choice(_PI_COEFFS + [3, Fraction(-1, 2)])
        elif pair == "grassmann":
            a, b = (NumericGrassmann(3, {
                rnd.randrange(8): complex(rnd.uniform(-1, 1), rnd.choice([0.0, -0.0, 0.5]))
                for _ in range(4)}) for _ in "ab")
        else:
            a, b = (RadialProfile({
                (Fraction(rnd.randrange(-3, 4), 2), rnd.randrange(3), Fraction(rnd.randrange(2))):
                rnd.choice(_PI_COEFFS) for _ in range(4)}) for _ in "ab")
        diff, ref = a - b, a + (-b)
        assert diff == ref
        assert list(diff.terms.items()) == list(ref.terms.items())
        assert (a - a).is_zero


def test_r_squared_shared_and_unmutated():
    """``r_squared`` is built once per layout; using it leaves it as built."""
    sig = Signature(2, 1)
    R2 = r_squared(sig)
    built = dict(R2.terms)
    f = SuperPolynomial.parse("x1 f1 + 3 x2^2", sig)
    for g in (R2 * f, f * R2, R2 - f, R2 + f, -R2, R2 * 2, R2**2, laplacian(R2)):
        assert g is not R2
    assert r_squared(sig) is R2 and R2.terms == built
    assert R2 == SuperPolynomial.parse("x1^2 + x2^2 - f1 f2", sig)
    assert r_squared(sig, 2, 1) == SuperPolynomial.parse("y1^2 + y2^2 - g1 g2", sig, 2)


@settings(max_examples=150)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (1, 3)]), st.integers(0, 10**6))
def test_laplacian_leibniz_rule(mn, seed):
    """For even f, lap(fg) = lap(f) g + 2 <grad f, grad g> + f lap(g): ties the
    metric table behind ``vector_pairing`` to the hard-coded ``laplacian``."""
    sig = Signature(*mn)
    rnd = random.Random(seed)
    f = random_poly(sig, rnd, deg=3, nterms=4)
    f = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if k[1].bit_count() % 2 == 0})
    g = random_poly(sig, rnd, deg=3, nterms=4)
    pair = vector_pairing(gradient(f), gradient(g))
    assert laplacian(f * g) == laplacian(f) * g + pair * 2 + f * laplacian(g)


def test_laplacian_kills_mixed_first_degree():
    sig = Signature(1, 1)
    x1f1 = SuperPolynomial.parse("1 x1 f1", sig)
    assert laplacian(x1f1).is_zero


def test_euler_counts_degree():
    sig = Signature(1, 1)
    f = SuperPolynomial.parse("1 x1^2 f1", sig)
    assert euler(f) == f * 3
    assert euler(SuperPolynomial.constant(sig, 5)).is_zero
    assert euler(r_squared(sig)) == r_squared(sig) * 2


@pytest.mark.parametrize("sig", SIGS)
def test_euler_pairing_identity(sig):
    # <nabla, x .> = M + E as an operator
    rnd = random.Random(hash((sig.m, sig.n)) & 0xFFFF)
    for _ in range(6):
        f = random_poly(sig, rnd)
        lhs = nabla_pair_with_x(f)
        assert lhs == f * sig.superdim + euler(f)


@pytest.mark.parametrize("sig", SIGS)
def test_sl2_relations(sig):
    rnd = random.Random(17 + sig.m + 10 * sig.n)
    M = sig.superdim
    R2 = r_squared(sig)
    half = Fraction(1, 2)
    for _ in range(5):
        f = random_poly(sig, rnd)
        lap_half = lambda g: laplacian(g) * half
        r2_half = lambda g: R2 * g * half
        e_plus = lambda g: euler(g) + g * Fraction(M, 2)
        # [lap/2, R^2/2] = E + M/2
        assert lap_half(r2_half(f)) - r2_half(lap_half(f)) == e_plus(f)
        # [lap/2, E + M/2] = 2*(lap/2)
        assert lap_half(e_plus(f)) - e_plus(lap_half(f)) == laplacian(f)
        # [R^2/2, E + M/2] = -2*(R^2/2)
        assert r2_half(e_plus(f)) - e_plus(r2_half(f)) == -(R2 * f)


# -- rotation generators ------------------------------------------------------


def test_osp_generator_examples():
    sig = Signature(2, 1)
    x1 = SuperPolynomial.coordinate(sig, 1)
    assert osp_generator(x1, 1, 2) == -SuperPolynomial.coordinate(sig, 2)
    # L_{m+2,m+2} = -4 f2 d_{f1}: applied to f1 gives -4 f2
    f1 = SuperPolynomial.coordinate(sig, 3)
    assert osp_generator(f1, 4, 4) == SuperPolynomial.coordinate(sig, 4) * (-4)


@pytest.mark.parametrize("sig", SIGS)
def test_osp_generators_kill_radius(sig):
    R2 = r_squared(sig)
    for i in range(1, sig.total_vars + 1):
        for j in range(i, sig.total_vars + 1):
            assert osp_generator(R2, i, j).is_zero, (sig, i, j)


def test_osp_generator_super_antisymmetry():
    sig = Signature(2, 1)
    f = random_poly(sig, random.Random(31))
    tv = sig.total_vars
    for i in range(1, tv + 1):
        for j in range(1, tv + 1):
            pi = 0 if i <= sig.m else 1
            pj = 0 if j <= sig.m else 1
            sgn = -1 if not (pi and pj) else 1
            assert osp_generator(f, j, i) == osp_generator(f, i, j) * Fraction(sgn)


@pytest.mark.parametrize("sig", SIGS)
def test_laplace_beltrami_eigenvalues(sig):
    M = sig.superdim
    # degree-1 harmonics: coordinates themselves
    for k in range(1, sig.total_vars + 1):
        Xk = SuperPolynomial.coordinate(sig, k)
        assert laplace_beltrami(Xk) == Xk * (-(M - 1))
    assert laplace_beltrami(SuperPolynomial.constant(sig, 3)).is_zero
    assert laplace_beltrami(r_squared(sig)).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_laplace_beltrami_casimir_route(sig):
    rnd = random.Random(101 + sig.m + 7 * sig.n)
    for _ in range(4):
        f = random_poly(sig, rnd, deg=3, nterms=4)
        assert laplace_beltrami_via_generators(f) == laplace_beltrami(f)


@pytest.mark.parametrize("sig", [Signature(2, 1), Signature(3, 1)])
def test_laplace_beltrami_commutes_with_generators(sig):
    rnd = random.Random(55)
    f = random_poly(sig, rnd, deg=3, nterms=4)
    for i in range(1, sig.total_vars + 1):
        for j in range(i, sig.total_vars + 1):
            ab = laplace_beltrami(osp_generator(f, i, j))
            ba = osp_generator(laplace_beltrami(f), i, j)
            assert ab == ba, (i, j)


def _laplace_beltrami_composed(f, copy):
    """R^2 lap - (M - 2) E - E E from the single operators: the oracle for
    the one-sweep ``laplace_beltrami``."""
    ef = euler(f, copy)
    return mul_r2(laplacian(f, copy), copy) - ef * (f.sig.superdim - 2) - euler(ef, copy)


_LB_COEFFS = _PI_COEFFS + [ExactScalar.parse(t) for t in ("-7/720", "1/720*pi^(1/2) + -5/6")]


# R^{2|2} at d = 2 and R^{3|4} at d = 3 have a zero diagonal -d(M - 2 + d)
@settings(max_examples=200)
@given(st.sampled_from([(2, 1), (3, 2), (1, 1), (3, 1), (2, 2)]),
       st.sampled_from([(1, 0), (2, 0), (2, 1)]), st.integers(0, 7), st.integers(0, 10**6))
def test_laplace_beltrami_matches_composed(mn, copies_copy, nterms, seed):
    copies, copy = copies_copy
    sig = Signature(*mn)
    rnd = random.Random(seed)
    nb = copies * sig.m
    terms = {}
    for _ in range(nterms):
        bos = [0] * nb
        for _ in range(rnd.randrange(5)):
            bos[rnd.randrange(nb)] += 1
        terms[(tuple(bos), rnd.randrange(1 << (copies * 2 * sig.n)))] = rnd.choice(_LB_COEFFS)
    f = SuperPolynomial(sig, terms, copies)
    images, sweep = [], sp._sweep

    def recording(g, imgs):
        images.extend(imgs)
        return sweep(g, images)
    with mock.patch.object(sp, "_sweep", recording):
        got = laplace_beltrami(f, copy)
    assert got == _laplace_beltrami_composed(f, copy)
    # keys and pi exponents come in the order of a term-by-term sum of the
    # images; the composition's intermediate sums can order them differently
    assert _ordered(got.terms) == _ordered(_sweep_by_terms(images))
    assert all(c and all(c.terms.values()) for c in got.terms.values())


def test_laplace_beltrami_drops_vanishing_diagonal():
    # a first one-sweep draft kept "0 x1 x2" here: M = 0, d = 2
    f = SuperPolynomial.parse("x1 x2 + 1/3 x1 + x1 f1", Signature(2, 1))
    assert laplace_beltrami(f) == _laplace_beltrami_composed(f, 0)
    assert laplace_beltrami(f).to_text() == "1/3 x1"


def test_casimir_route_independent_of_the_sweeps(monkeypatch):
    """The generator route calls none of the sweep operators, so criterion 01
    and the benchmark's Laplace-Beltrami check keep comparing two routes."""
    sig = Signature(2, 1)
    f = SuperPolynomial.parse("x1^2 x2 + (1 + -2*pi^(-1/2)) x1 f1 f2 - 1/2 x2 f2", sig)
    want = laplace_beltrami_via_generators(f)
    assert want == laplace_beltrami(f)

    def refuse(*args, **kwargs):
        raise AssertionError("the Casimir route reached a sweep operator")
    for name in ("_sweep", "_lap_images", "_r2_images", "laplacian", "mul_r2", "euler"):
        monkeypatch.setattr(sp, name, refuse)
    with pytest.raises(AssertionError):
        sp.laplace_beltrami(f)
    assert laplace_beltrami_via_generators(f) == want


def _ordered(terms):
    return [(key, list(c.terms.items())) for key, c in terms.items()]


def _sweep_by_terms(images):
    """The images summed one ``ExactScalar`` product at a time."""
    out = {}
    for c, w, key in images:
        out[key] = out[key] + c * w if key in out else c * w
    return {key: c for key, c in out.items() if c}


def test_sweep_edge_cases():
    sig = Signature(2, 1)
    a, b = ExactScalar.parse("1 + 2*pi^(-1/2)"), ExactScalar.parse("-1 + pi^(-1/2)")
    half, third = ExactScalar.rational(Fraction(1, 2)), ExactScalar.rational(Fraction(-1, 3))
    keys = [((i, j), mask) for i in range(3) for j in range(2) for mask in (0, 3)]
    f = SuperPolynomial(sig, dict(zip(keys, (a, b, half, third))))
    k0, k1, k2, k3 = keys[4:8]
    cases = [
        [(half, 2, k0), (third, 3, k0)],                 # 1 - 1: the key is dropped
        [(a, 1, k0), (b, 1, k0)],                        # the rational parts cancel
        [(a, 1, k1), (b, -2, k1), (half, 4, k2)],        # the pi^(-1/2) parts cancel
        [(third, 6, k1), (a, 2, k2), (third, -6, k1), (b, 1, k3), (half, 2, k1), (a, -1, k2)],
        [(a, 1, k3), (half, 1, k2), (b, 4, k1), (a, -1, k3), (b, -4, k1), (third, 3, k3)],
    ]
    for images in cases:
        got = sp._sweep(f, iter(images))
        want = _sweep_by_terms(images)
        assert got.terms == want
        # key order and pi-exponent order of the term-by-term sum
        assert _ordered(got.terms) == _ordered(want)
        assert all(c and all(c.terms.values()) for c in got.terms.values())
    assert sp._sweep(f, iter(cases[0])).is_zero
    assert sp._sweep(f, iter(cases[1])).terms == {k0: ExactScalar.pi_pow(-1, 3)}
    assert sp._sweep(f, iter(cases[2])).terms == {k1: ExactScalar.rational(3), k2: ExactScalar.rational(2)}


def test_metric_entries_shape():
    ent = metric_entries(Signature(2, 1))
    assert (1, 1, Fraction(1)) in ent and (2, 2, Fraction(1)) in ent
    assert (3, 4, Fraction(-1, 2)) in ent and (4, 3, Fraction(1, 2)) in ent
    assert len(ent) == 4


# -- evaluation ---------------------------------------------------------------


def test_evaluate_bosonic():
    sig = Signature(2, 1)
    f = SuperPolynomial.parse("2 x1^2 x2 + -1 x1 f1 f2", sig)
    v = f.evaluate_bosonic([1.5, -2.0])
    assert v.coeff(0) == pytest.approx(2 * 1.5**2 * -2.0)
    assert v.coeff(0b11) == pytest.approx(-1.5)


def test_mul_coordinate_vs_parse():
    sig = Signature(1, 1)
    f = SuperPolynomial.parse("1 f2", sig)
    assert mul_coordinate(f, 2) == SuperPolynomial.parse("1 f1 f2", sig)
    g = SuperPolynomial.parse("1 f1", sig)
    assert mul_coordinate(g, 3) == SuperPolynomial.parse("-1 f1 f2", sig)


# -- copy layout ----------------------------------------------------------------


_COPY_OPS = {
    "pizzetti": pizzetti,
    "euler": euler,
    "laplacian": laplacian,
    "mul_r2": mul_r2,
    "laplace_beltrami": laplace_beltrami,
    "degree": lambda f, c: f.degree(c),
    "dferm": lambda f, c: dferm(f, 1, c),
    "dbos": lambda f, c: dbos(f, 1, c),
    "coordinate": lambda f, c: SuperPolynomial.coordinate(f.sig, 1, f.copies, c),
    "r_squared": lambda f, c: r_squared(f.sig, f.copies, c),
    "fermi_norm_poly": lambda f, c: fermi_norm_poly(f.sig, f.copies, c),
}


@pytest.mark.parametrize("name", sorted(_COPY_OPS))
def test_copy_outside_the_algebra_refused(name):
    # on one copy, copy 1 used to read the empty block (pizzetti, euler, dferm and
    # degree gave 0) or raise IndexError; copy 2 of the doubled algebra made
    # pizzetti return 2f, and copy -1 counted slots from the end
    op = _COPY_OPS[name]
    f = SuperPolynomial.parse("x1^2 + 2 x2 f1 f2 + x3", Signature(3, 1))
    for g, bad, good in ((f, (1, -1), (0,)), (f.embed_doubled(), (2, -1), (0, 1))):
        for c in bad:
            with pytest.raises(ValueError, match=re.escape(f"copy {c} not in range({g.copies})")):
                op(g, c)
        for c in good:
            op(g, c)
