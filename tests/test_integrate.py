"""Sphere/ball/full-space integration: exact functionals and their identities."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from superharm.scalar import ExactScalar, gamma_exact, laguerre_coeffs, recip_gamma, sphere_area
from superharm.superpoly import (
    Signature,
    SuperPolynomial,
    _fractions,
    euler,
    gradient,
    laplacian,
    osp_generator,
    r_squared,
    vector_pairing,
)
from superharm.harmonics import harmonic_basis
from superharm.integrate import (
    DegenerateDegreeError,
    NonIntegrableError,
    RadicalScalar,
    _laplacian_moments,
    _rational_sqrt,
    _reduce,
    greens_check,
    integrate_superspace,
    pizzetti,
    quad_0_inf,
    reduce_integral,
    superball_poly,
)
from superharm.radial import NumericProfile, RadialProfile

SIGS = [Signature(1, 0), Signature(3, 0), Signature(1, 1), Signature(2, 1),
        Signature(3, 1), Signature(2, 2)]


def random_poly(sig, rnd, deg=4, nterms=5):
    p = SuperPolynomial.zero(sig)
    for _ in range(nterms):
        bos = [0] * sig.m
        for _ in range(rnd.randrange(deg + 1)):
            bos[rnd.randrange(sig.m)] += 1
        mask = rnd.randrange(1 << (2 * sig.n))
        c = Fraction(rnd.randrange(-4, 5))
        if c:
            p = p + SuperPolynomial(sig, {(tuple(bos), mask): c})
    return p


# -- sphere functional --------------------------------------------------------


@pytest.mark.parametrize("sig", SIGS)
def test_sphere_integral_of_one_and_r_squared(sig):
    M = sig.superdim
    one = SuperPolynomial.constant(sig, Fraction(1))
    assert (pizzetti(one) - sphere_area(M)).is_zero
    # R^2 restricts to 1 on the sphere
    assert (pizzetti(r_squared(sig)) - sphere_area(M)).is_zero


def test_sphere_integral_classical_second_moment():
    sig = Signature(3, 0)
    f = SuperPolynomial(sig, {((2, 0, 0), 0): Fraction(1)})
    want = sphere_area(3) * Fraction(1, 3)
    assert (pizzetti(f) - want).is_zero


def test_pizzetti_weight_degenerate_zeros():
    # at M = -2 (R^{2|4}) the k = 0 and k = 1 weights vanish (Gamma(k-1)
    # poles), so 1 and x1^2 integrate to zero; k = 2 hits Gamma(1) = 1 and
    # survives, weighing (lap^2 f)(0) = 24 and 32 by pi^-1 / 16
    sig = Signature(2, 2)
    for text, want in [("1", "0"), ("x1^2", "0"), ("x1^4", "3/2*pi^-1"), ("f1 f2 f3 f4", "2*pi^-1")]:
        assert pizzetti(SuperPolynomial.parse(text, sig)).to_text() == want


# -- the Laplacian moment sweep against the iterated Laplacian ---------------


def _iterated_moments(f, copy=0):
    """{k: lap^k f with the copy's variables set to zero}, lap applied until
    the result is zero: the oracle for the one-pass ``_laplacian_moments``."""
    m, n = f.sig.m, f.sig.n
    cmask = ((1 << (2 * n)) - 1) << (copy * 2 * n)
    out, k = {}, 0
    while not f.is_zero:
        g = SuperPolynomial(f.sig, {
            key: c for key, c in f.terms.items()
            if not any(key[0][copy * m:(copy + 1) * m]) and not key[1] & cmask
        }, f.copies)
        if not g.is_zero:
            out[k] = g
        f, k = laplacian(f, copy), k + 1
    return out


def _moments(f, copy=0):
    """``_laplacian_moments``' integer numerators read back as polynomials,
    zero moments dropped: the form ``_iterated_moments`` gives."""
    moments, den = _laplacian_moments(f, copy)
    polys = {k: _fractions(f, g, den) for k, g in moments.items()}
    return {k: g for k, g in polys.items() if g}


def _pizzetti_weight(M, k):
    """2 pi^{M/2} / (4^k k! Gamma(k + M/2)), zero at the poles of Gamma: the
    oracle's own copy of the weight that ``pizzetti`` reaches through sigma_D."""
    return ExactScalar.pi_pow(M, Fraction(2, 4**k * math.factorial(k))) * recip_gamma(Fraction(M, 2) + k)


def _iterated_pizzetti(f, copy=0):
    acc = SuperPolynomial.zero(f.sig, f.copies)
    for k, g in _iterated_moments(f, copy).items():
        acc = acc + g * _pizzetti_weight(f.sig.superdim, k)
    return acc.constant_term() if f.copies == 1 else acc


def _iterated_ball(f):
    """Ball integral piece by piece: T(f_d) / (M + d), refused at M + d = 0
    for even d."""
    M = f.sig.superdim
    out = ExactScalar()
    for d, part in f.homogeneous_components().items():
        if d % 2 == 0:
            if M + d == 0:
                raise DegenerateDegreeError(f"degree {d} at M = {M}")
            out = out + _iterated_pizzetti(part) / Fraction(M + d)
    return out


def _iterated_gaussian(f, a):
    M = f.sig.superdim
    total = ExactScalar()
    for k, g in _iterated_moments(f).items():
        total = total + g.constant_term() * Fraction(1, math.factorial(k) * (4 * a) ** k)
    value = total * ExactScalar.pi_pow(M, a ** -((M + 1) // 2))
    return RadicalScalar(ExactScalar(), value, a) if M % 2 else RadicalScalar(value, ExactScalar(), a)


def _skewed_poly(sig, rnd, copies=1):
    """Random terms, half of them with even exponents and whole fermion pairs,
    times R^{2p} on a random copy: most random monomials reach no (lap^k f)(0)
    and would leave the comparison vacuous."""
    nb, npairs = copies * sig.m, copies * sig.n
    terms = {}
    for _ in range(rnd.randrange(1, 6)):
        bos = [0] * nb
        for _ in range(rnd.randrange(6)):
            bos[rnd.randrange(nb)] += 1
        if rnd.random() < 0.5:
            bos = [e - e % 2 for e in bos]
            mask = sum(3 << (2 * j) for j in range(npairs) if rnd.random() < 0.5)
        else:
            mask = rnd.randrange(1 << (2 * npairs))
        c = Fraction(rnd.randrange(-4, 5), rnd.randrange(1, 4))
        terms[(tuple(bos), mask)] = c * ExactScalar.pi_pow(rnd.choice([0, 0, -1, 1]))
    f = SuperPolynomial(sig, terms, copies)
    return f * r_squared(sig, copies, rnd.randrange(copies)) ** rnd.randrange(3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 10**6))
def test_laplacian_moments_match_iterated_laplacian(m, n, seed):
    """Pizzetti on one copy and on each copy of the doubled algebra, the ball
    integral with its refusals, and the Gaussian integral at a square and a
    non-square rate, all against the iterated Laplacian."""
    sig = Signature(m, n)
    rnd = random.Random(seed)
    f = _skewed_poly(sig, rnd)
    assert _moments(f) == _iterated_moments(f)
    assert pizzetti(f) == _iterated_pizzetti(f)
    for a in (Fraction(9, 4), Fraction(1, 3)):
        assert integrate_superspace(f, a) == _iterated_gaussian(f, a)
    try:
        want = _iterated_ball(f)
    except DegenerateDegreeError:
        with pytest.raises(DegenerateDegreeError):
            superball_poly(f)
    else:
        assert superball_poly(f) == want
    f2 = _skewed_poly(sig, rnd, copies=2)
    for copy in (0, 1):
        assert _moments(f2, copy) == _iterated_moments(f2, copy)
        got = pizzetti(f2, copy)
        assert got == _iterated_pizzetti(f2, copy)
        assert got.to_text() == _iterated_pizzetti(f2, copy).to_text()


def _reduce_composed(f, radial, copy=0):
    """``_reduce`` from the iterated Laplacian and polynomial sums: moment k
    sums (lap^k t)|_{copy=0} over f's terms t in f's order (a key that cancels
    keeps its place), and the k-sum is a sum of polynomials, so its keys and
    pi exponents come in the order ``to_float`` and ``evaluate_bosonic`` read."""
    M = f.sig.superdim
    moments = {}
    for key, c in f.terms.items():
        for k, g in _iterated_moments(f._with({key: c}), copy).items():
            out = moments.setdefault(k, {})
            for gkey, gc in g.terms.items():
                out[gkey] = out[gkey] + gc if gkey in out else gc
    acc = SuperPolynomial.zero(f.sig, f.copies)
    for k in sorted(moments):
        g = f._with({key: c for key, c in moments[k].items() if c})
        if g:
            w = ExactScalar.pi_pow(-2 * k, Fraction(1, 4**k * math.factorial(k)))
            acc = acc + g * (radial(M + 2 * k) * w)
    return acc.constant_term() if f.copies == 1 else acc


def _ordered(value):
    if isinstance(value, ExactScalar):
        return list(value.terms.items())
    return [(key, list(c.terms.items())) for key, c in value.terms.items()]


_RADIALS = [sphere_area, lambda D: ExactScalar.pi_pow(D, Fraction(4, 9) ** ((D + 1) // 2))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([(1, 0), (2, 0), (2, 1)]),
       st.sampled_from(range(len(_RADIALS))), st.integers(0, 10**6))
def test_reduce_matches_composed_sum(m, n, copies_copy, radial, seed):
    """Values, key order and pi-exponent order of ``_reduce`` on one and two
    copies, for the sphere's and a Gaussian's radial factor."""
    copies, copy = copies_copy
    f = _skewed_poly(Signature(m, n), random.Random(seed), copies)
    got = _reduce(f, _RADIALS[radial], copy)
    want = _reduce_composed(f, _RADIALS[radial], copy)
    assert got == want
    assert _ordered(got) == _ordered(want)


@pytest.mark.parametrize("sig", [Signature(2, 1), Signature(2, 2), Signature(2, 3)])
def test_ball_refusal_at_every_nonpositive_even_superdimension(sig):
    """M = 0, -2, -4: the piece of degree -M is refused even where its sphere
    integral vanishes (an odd monomial), and a polynomial without that degree
    is integrated; a doubled polynomial is refused."""
    M = sig.superdim
    rnd = random.Random(-M)
    for _ in range(5):
        f = _skewed_poly(sig, rnd)
        bos = [0] * sig.m
        bos[0] = -M - 1 if M else 0
        stall = SuperPolynomial(sig, {(tuple(bos), 1 if M else 0): Fraction(1)})
        with pytest.raises(DegenerateDegreeError):
            superball_poly(f + stall)
        f = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if sum(k[0]) + k[1].bit_count() != -M})
        assert superball_poly(f) == _iterated_ball(f)
        with pytest.raises(ValueError, match="single-copy"):
            superball_poly(f.embed_doubled())


@pytest.mark.parametrize("sig", SIGS)
def test_sphere_integral_mod_radius(sig):
    rnd = random.Random(17 + sig.m + 10 * sig.n)
    R2 = r_squared(sig)
    for _ in range(6):
        f = random_poly(sig, rnd)
        assert (pizzetti(R2 * f) - pizzetti(f)).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_sphere_integral_rotation_invariant(sig):
    rnd = random.Random(23 + sig.m + 10 * sig.n)
    tv = sig.total_vars
    for _ in range(4):
        f = random_poly(sig, rnd)
        i = rnd.randrange(1, tv + 1)
        j = rnd.randrange(1, tv + 1)
        assert pizzetti(osp_generator(f, i, j)).is_zero


def test_sphere_integral_kills_cross_harmonics():
    for sig in [Signature(3, 0), Signature(2, 1), Signature(3, 1)]:
        bases = {k: list(harmonic_basis(sig, k)) for k in range(5)}
        for k in range(5):
            for l in range(5):
                if k == l:
                    continue
                for Hk in bases[k][:2]:
                    for Hl in bases[l][:2]:
                        assert pizzetti(Hk * Hl).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_mean_value_on_harmonic_polynomials(sig):
    rnd = random.Random(31)
    h = SuperPolynomial.zero(sig)
    for k in range(5):
        for H in harmonic_basis(sig, k):
            h = h + H * Fraction(rnd.randrange(-3, 4))
    want = sphere_area(sig.superdim) * h.constant_term()
    assert (pizzetti(h) - want).is_zero


# -- ball functional ----------------------------------------------------------


def test_ball_integral_basic_values():
    # unit disc area
    sig2 = Signature(2, 0)
    one = SuperPolynomial.constant(sig2, Fraction(1))
    assert (superball_poly(one) - ExactScalar.pi_pow(2)).is_zero
    for sig in [Signature(3, 0), Signature(3, 1), Signature(1, 1)]:
        M = sig.superdim
        one = SuperPolynomial.constant(sig, Fraction(1))
        assert (superball_poly(one) - sphere_area(M) * Fraction(1, M)).is_zero
        got = superball_poly(r_squared(sig))
        assert (got - sphere_area(M) * Fraction(1, M + 2)).is_zero


def test_ball_integral_odd_degree_vanishes():
    sig = Signature(3, 1)
    x1 = SuperPolynomial.coordinate(sig, 1)
    assert superball_poly(x1).is_zero
    assert superball_poly(x1 * r_squared(sig)).is_zero


def test_ball_integral_degenerate_degree_raises():
    # M + d = 0 stalls the radial weight
    one = SuperPolynomial.constant(Signature(2, 1), Fraction(1))
    with pytest.raises(DegenerateDegreeError):
        superball_poly(one)
    with pytest.raises(DegenerateDegreeError):
        superball_poly(r_squared(Signature(2, 2)))
    # odd total degree at the stalled weight is still fine (parity zero)
    x1 = SuperPolynomial.coordinate(Signature(2, 1), 1)
    assert superball_poly(x1 * r_squared(Signature(2, 1))).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_ball_boundary_identity(sig):
    rnd = random.Random(41 + sig.m + 10 * sig.n)
    for _ in range(4):
        f = random_poly(sig, rnd, deg=3)
        try:
            lhs, rhs = greens_check(f)
        except DegenerateDegreeError:
            continue
        for a, b in zip(lhs, rhs):
            assert (a - b).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_ball_laplacian_vs_sphere_euler(sig):
    rnd = random.Random(43 + sig.m + 10 * sig.n)
    for _ in range(5):
        g = random_poly(sig, rnd, deg=4)
        try:
            lhs = superball_poly(laplacian(g))
        except DegenerateDegreeError:
            continue
        assert (lhs - pizzetti(euler(g))).is_zero


@pytest.mark.parametrize("sig", SIGS)
def test_ball_first_green_identity(sig):
    rnd = random.Random(47 + sig.m + 10 * sig.n)
    for _ in range(4):
        f = random_poly(sig, rnd, deg=3)
        # even Grassmann part only
        f = sum(
            (part for d, part in f.homogeneous_components().items()),
            SuperPolynomial.zero(sig),
        )
        f = _grassmann_even_part(f)
        g = random_poly(sig, rnd, deg=3)
        pair = vector_pairing(gradient(f), gradient(g))
        try:
            lhs = superball_poly(pair)
            rhs = pizzetti(f * euler(g)) - superball_poly(f * laplacian(g))
        except DegenerateDegreeError:
            continue
        assert (lhs - rhs).is_zero


def _grassmann_even_part(f):
    out = SuperPolynomial.zero(f.sig, f.copies)
    for (bos, mask), c in f.terms.items():
        if bin(mask).count("1") % 2 == 0:
            out = out + SuperPolynomial(f.sig, {(bos, mask): c}, f.copies)
    return out


# -- full-space Gaussian integrals -------------------------------------------


GAUSS_SIGS = SIGS + [Signature(1, 2)]


@pytest.mark.parametrize("sig", GAUSS_SIGS)
def test_gaussian_integral_unit_rate(sig):
    one = SuperPolynomial.constant(sig, Fraction(1))
    got = integrate_superspace(one, gaussian_a=1)
    want = ExactScalar.pi_pow(sig.superdim)
    assert abs(got.to_float() - want.to_float()) < 1e-14
    assert (got.rat - want).is_zero and got.rad.is_zero


@pytest.mark.parametrize("sig", GAUSS_SIGS)
def test_gaussian_integral_general_rate(sig):
    one = SuperPolynomial.constant(sig, Fraction(1))
    for a in (Fraction(1, 2), Fraction(3), Fraction(4)):
        got = integrate_superspace(one, gaussian_a=a)
        want = (math.pi / float(a)) ** (sig.superdim / 2)
        assert abs(got.to_float() - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("sig", GAUSS_SIGS)
def test_gaussian_second_moments(sig):
    M = sig.superdim
    # int R^2 exp(-R^2) = (M/2) pi^{M/2}
    got = integrate_superspace(r_squared(sig), gaussian_a=1)
    want = ExactScalar.pi_pow(M, Fraction(M, 2))
    assert abs(got.to_float() - want.to_float()) < 1e-13
    assert (got.rat - want).is_zero and got.rad.is_zero
    # int x1^2 exp(-R^2) = pi^{M/2}/2 regardless of which bosonic slot
    x1sq = SuperPolynomial(sig, {(tuple([2] + [0] * (sig.m - 1)), 0): Fraction(1)})
    got = integrate_superspace(x1sq, gaussian_a=1)
    want = ExactScalar.pi_pow(M, Fraction(1, 2))
    assert (got.rat - want).is_zero and got.rad.is_zero


def test_gaussian_fermionic_moment():
    # f1 f2 exp(-R^2) = exp(-r^2) f1 f2 (the fermionic expansion dies on f1f2),
    # so the full integral is (Berezin integral of f1f2) * int exp(-r^2) = pi^{-1} * pi^{3/2}
    sig = Signature(3, 1)
    f12 = SuperPolynomial(sig, {((0, 0, 0), 0b11): Fraction(1)})
    got = integrate_superspace(f12, gaussian_a=1)
    assert (got.rat - ExactScalar.pi_pow(1)).is_zero and got.rad.is_zero


# Identities the Laplacian series does not build in: Green's formula against
# lap exp(-a R^2) = (4 a^2 R^2 - 2 a M) exp(-a R^2), and the osp invariance of
# the Gaussian.
PROPERTY_SIGS = GAUSS_SIGS + [Signature(2, 0), Signature(4, 1), Signature(3, 2)]


@pytest.mark.parametrize("sig", PROPERTY_SIGS)
def test_gaussian_integral_green_identity(sig):
    rnd = random.Random(f"green:{sig}")
    M = sig.superdim
    nonzero = 0
    for a in (Fraction(1, 3), Fraction(1), Fraction(9, 4)):
        weight = r_squared(sig) * (4 * a * a) + SuperPolynomial.constant(sig, -2 * a * M)
        for _ in range(4):
            f = random_poly(sig, rnd, deg=5, nterms=6)
            lhs = integrate_superspace(laplacian(f), a)
            assert lhs == integrate_superspace(f * weight, a), (a, f)
            nonzero += lhs != 0
    assert nonzero > 0


@pytest.mark.parametrize("sig", PROPERTY_SIGS)
def test_gaussian_integral_rotation_invariance(sig):
    rnd = random.Random(f"rotation:{sig}")
    tv = sig.total_vars
    for a in (Fraction(1, 3), Fraction(1), Fraction(9, 4)):
        for _ in range(4):
            f = random_poly(sig, rnd, deg=5, nterms=6)
            i, j = rnd.randrange(1, tv + 1), rnd.randrange(1, tv + 1)
            assert integrate_superspace(osp_generator(f, i, j), a) == 0, (a, f, i, j)


def dimensional_continuation_check(g, h, gaussian_a):
    """Full-space integral of h(R^2) g two ways, M > 0: the exact Gaussian
    path (h = exp(-a u)) against radial shells,
    sum_d T(g_d) * integral_0^inf v^{M-1+d} h(v^2) dv."""
    M = g.sig.superdim
    lhs = integrate_superspace(g, gaussian_a).to_float()
    rhs = 0.0
    for d, part in g.homogeneous_components().items():
        w = pizzetti(part).to_float()
        if w != 0.0:
            rhs += w * quad_0_inf(lambda v, _d=d: v ** (M - 1 + _d) * h(v * v))
    return lhs, rhs


def test_dimensional_continuation_polynomial_times_gaussian():
    rnd = random.Random(53)
    for sig in [Signature(3, 0), Signature(3, 1), Signature(5, 2)]:
        for _ in range(3):
            g = random_poly(sig, rnd, deg=3, nterms=3)
            lhs, rhs = dimensional_continuation_check(
                g, lambda u: math.exp(-u), gaussian_a=1
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# -- radial reduction of full-space integrals --------------------------------


class _GaussProfile:
    """Minimal stand-in for the radial profile interface: c * exp(-u)."""

    def __init__(self, c=1.0):
        self.c = c

    def __call__(self, u):
        return self.c * math.exp(-u)

    def derivative(self):
        return _GaussProfile(-self.c)


@pytest.mark.parametrize(
    "sig",
    [Signature(3, 1), Signature(2, 1), Signature(1, 1), Signature(2, 2),
     Signature(1, 2), Signature(3, 2)],
)
def test_reduced_integral_gaussian_all_branches(sig):
    M = sig.superdim
    if M <= 0 and M % 2 == 0:
        # the branch reads h^(-M/2)(0) alone; an evaluator's decay cannot be read
        with pytest.raises(NonIntegrableError):
            reduce_integral(_GaussProfile(), sig)
        return
    got = reduce_integral(_GaussProfile(), sig)
    want = math.pi ** (M / 2)
    if isinstance(got, ExactScalar):
        assert (got - ExactScalar.pi_pow(M)).is_zero
    else:
        assert abs(got - want) < 1e-10


def test_reduce_integral_refuses_evaluators_at_even_nonpositive_superdim():
    # On M = -2 the value h'(0) alone would be returned: -1/pi for 1 + u,
    # whose integral is 0, and -0.0 for the divergent u^3.
    sig = Signature(2, 2)
    for coeffs in ([1, 1], [0, 0, 0, 1]):
        with pytest.raises(NonIntegrableError):
            reduce_integral(NumericProfile.polynomial(coeffs), sig)
    # a decaying symbolic profile whose derivative is infinite at 0
    with pytest.raises(NonIntegrableError, match="diverges"):
        reduce_integral(RadialProfile.power(Fraction(1, 2)) * RadialProfile.exponential(1), sig)


@pytest.mark.parametrize("sig", [Signature(1, 0), Signature(2, 0), Signature(3, 0),
                                 Signature(5, 0), Signature(1, 1), Signature(1, 2)])
def test_reduce_integral_gamma_moments_match_quadrature(sig):
    M = sig.superdim
    j = max(0, (1 - M) // 2)  # derivatives taken on the odd negative branch
    if M > 0:
        pre, power = sphere_area(M).to_float(), M - 1
    else:
        pre, power = 2 * (-1) ** j * math.pi ** ((M - 1) / 2), 0
    for a in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for psi in [RadialProfile.exponential(a)] + [
            RadialProfile.laguerre_exp(deg, Fraction(deg % 3, 2), a) for deg in (1, 4, 9)
        ]:
            got = reduce_integral(psi, sig)
            # exact unless an odd power of sqrt(a) is left over
            assert isinstance(got, ExactScalar) == (M % 2 == 0 or a in (Fraction(1, 4), 1))
            d = psi
            for _ in range(j):
                d = d.derivative()
            want = pre * quad_0_inf(lambda v: v**power * d(v * v), 1e-12)
            got = got.to_float() if isinstance(got, ExactScalar) else got
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (a, psi.to_text())


# The route by superdimension branch, the oracle of the one Mellin moment:
# M > 0 integrates h against v^{M-1}, odd M < 0 takes (1 - M)/2 derivatives
# and integrates against v^0, and M in -2N reads h^{(-M/2)}(0).


def _branch_reduce_integral(profile, sig, tol=1e-12):
    M = sig.superdim
    j = (1 - M) // 2
    d = profile
    for _ in range(j):
        d = d.derivative()
    if M > 0:
        pre, moment = sphere_area(M), _branch_moment(profile, M, tol)
    elif M % 2:
        pre, moment = ExactScalar.pi_pow(M - 1, 2 * (-1) ** j), _branch_moment(d, 1, tol)
    else:
        if not _branch_symbolic(d):
            raise NonIntegrableError("an evaluator's decay is unknown")
        val0 = d.value_exact_at_zero()
        if val0 is None:
            raise NonIntegrableError("diverges at u = 0")
        return ExactScalar.pi_pow(M, Fraction((-1) ** j)) * val0
    return pre * moment if isinstance(moment, ExactScalar) else pre.to_float() * moment


def _branch_symbolic(h):
    if not isinstance(h, RadialProfile):
        return False
    if not all(a > 0 for _, _, a in h.terms):
        raise NonIntegrableError("not exponentially decaying")
    return True


def _branch_moment(h, M, tol):
    """integral_0^inf v^{M-1} h(v^2) dv: Gamma moments (DLMF 5.2.1) for a
    log-free RadialProfile, quad_0_inf otherwise."""
    if not _branch_symbolic(h) or any(d for _, d, _ in h.terms):
        return quad_0_inf(lambda v: v ** (M - 1) * h(v * v), tol)
    exact, approx = ExactScalar(), None
    for (b, _, a), c in h.terms.items():
        s = b + Fraction(M, 2)
        if s <= 0:
            raise NonIntegrableError("diverges at the origin")
        if s.denominator > 2:
            term = c.to_float() * math.gamma(s) * float(a) ** -float(s) / 2
        else:
            whole = math.floor(s)
            term = gamma_exact(s) * c * (a**-whole / 2)
            if s != whole:
                root = _rational_sqrt(a)
                term = term / root if root is not None else term.to_float() / math.sqrt(a)
        if isinstance(term, ExactScalar):
            exact = exact + term
        else:
            approx = term if approx is None else approx + term
    return exact if approx is None else exact.to_float() + approx


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class is compared
        return exc


_RATES = [Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(1, 3),
          Fraction(2)]
# c u^b log(u)^d e^{-au} with b in Z, Z/2 or Z/3 and a < 0, = 0 or > 0
_TERM = st.tuples(st.integers(-5, 5).filter(bool), st.integers(-6, 8), st.sampled_from([1, 2, 3]),
                  st.sampled_from([0, 0, 0, 1]), st.sampled_from(_RATES))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.lists(_TERM, min_size=1, max_size=4))
def test_reduce_integral_matches_branch_route(m, n, terms):
    """The one Mellin moment against the three superdimension branches, M from
    -5 to 6: the same exception class, == and to_text for exact values, and
    1e-12 relative agreement for floats (an absolute 1e-13 at a cancelled 0)."""
    sig = Signature(m, n)
    h = RadialProfile({(Fraction(b, q), d, a): ExactScalar.rational(c) for c, b, q, d, a in terms})
    got, want = _outcome(reduce_integral, h, sig), _outcome(_branch_reduce_integral, h, sig)
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
    elif isinstance(want, ExactScalar):
        assert isinstance(got, ExactScalar) and got == want and got.to_text() == want.to_text()
    else:
        assert isinstance(got, float), got
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (got, want)


def test_reduce_integral_matches_branch_route_on_evaluators_and_logs():
    """Evaluators and log-factor profiles go by parts, with the branch route's
    prefactor and integrand, so their floats are bit-identical."""
    profiles = [_GaussProfile(), _GaussProfile(-2.5), NumericProfile.polynomial([1, 1]),
                RadialProfile.power_log(1) * RadialProfile.exponential(1),
                RadialProfile.power_log(Fraction(3, 2)) * RadialProfile.exponential(Fraction(1, 3)),
                RadialProfile.power_log(Fraction(1, 2)) * RadialProfile.exponential(2)
                + RadialProfile.exponential(1), RadialProfile.power_log(0)]
    for m in range(1, 7):
        for n in range(4):
            sig = Signature(m, n)
            for h in profiles:
                got, want = _outcome(reduce_integral, h, sig), _outcome(_branch_reduce_integral, h, sig)
                if isinstance(want, Exception):
                    assert type(got) is type(want), (sig, got, want)
                else:
                    assert got == want and type(got) is type(want), (sig, got, want)


def test_reduce_integral_of_laguerre_profiles_matches_gaussian_integral():
    """reduce_integral(L_j^q(u) e^{-au}) against integrate_superspace of the
    polynomial sum_p c_p R^{2p} with the Laguerre coefficients c_p, on M from
    -5 to 6: the two public routes to the same integral."""
    for m in range(1, 7):
        for n in range(4):
            sig = Signature(m, n)
            powers = [r_squared(sig) ** p for p in range(5)]
            for a in (Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(1, 3)):
                for j in range(5):
                    for q in (Fraction(0), Fraction(1, 2), Fraction(-1, 3)):
                        got = reduce_integral(RadialProfile.laguerre_exp(j, q, a), sig)
                        poly = sum((powers[p] * c for p, c in enumerate(laguerre_coeffs(j, q))),
                                   SuperPolynomial.zero(sig))
                        want = integrate_superspace(poly, a)
                        if isinstance(got, ExactScalar):
                            assert want == got, (sig, a, j, q)
                        else:
                            w = want.to_float()
                            assert abs(got - w) <= 1e-12 * abs(w), (sig, a, j, q, got, w)


def _mellin_reference(h, M):
    """pi^{M/2} sum c Gamma(s+b)/Gamma(s) a^{-(s+b)} at 50 digits, s = M/2, for
    a profile of integer b >= 0 and a > 0, and the same sum of |terms|."""
    with mpmath.workdps(50):
        s = mpmath.mpf(M) / 2
        terms = []
        for (b, _, a), c in h.terms.items():
            q = Fraction(c.to_text())  # the profiles here have rational coefficients
            terms.append(mpmath.mpf(q.numerator) / q.denominator * mpmath.rf(s, int(b))
                         * (mpmath.mpf(a.numerator) / a.denominator) ** -(s + int(b)))
        return mpmath.pi**s * mpmath.fsum(terms), mpmath.pi**s * mpmath.fsum(terms, absolute=True)


def test_reduce_integral_floats_match_mpmath():
    """Float values of CLI-grammar profiles (exp, lagexp, scaled) over m 1-6,
    n 0-3, within 1e-13 relative of the 50-digit Mellin moment (where it is
    not zero)."""
    rates = ("1/2", "2", "3", "1/3", "5/4")
    texts = [f"exp({a})" for a in rates] + [
        f"{scale}lagexp({j},{q},{a})"
        for j in range(1, 5) for q in ("0", "1/2", "-1/3", "2") for a in rates
        for scale in [("", "3/2*", "-1*", "-2/7*")[(j + len(q) + len(a)) % 4]]
    ]
    floats = 0
    for m in range(1, 7):
        for n in range(4):
            sig = Signature(m, n)
            for text in texts:
                h = RadialProfile.parse(text)
                got = reduce_integral(h, sig)
                if isinstance(got, ExactScalar):
                    continue
                floats += 1
                want, size = _mellin_reference(h, sig.superdim)
                if abs(want) <= 1e-40 * size:  # an exact zero: a few ulps of the terms
                    assert abs(got) <= 1e-15 * size, (sig, text, got)
                else:
                    assert abs(got - want) <= 1e-13 * abs(want), (sig, text, got, float(want))
    assert floats == 12 * len(texts)


def test_quadrature_helper_known_integral():
    assert abs(quad_0_inf(lambda v: math.exp(-v * v)) - math.sqrt(math.pi) / 2) < 1e-12
    # divergent at infinity, at zero, or at both: the cut-off tail shows in
    # the estimate
    for fn in (lambda v: v**4, lambda v: 1.0, lambda v: 1 / v, lambda v: 1 / (1 + v),
               lambda v: v**-1.5 * math.exp(-v)):
        with pytest.raises(NonIntegrableError):
            quad_0_inf(fn)
    # far nodes must not overflow u^9 where e^{-u} underflows, and the value
    # Gamma(21/2) / 2 ~ 5.6e5 needs a relative error estimate
    h = RadialProfile.power(9) * RadialProfile.exponential(1)
    want = math.gamma(10.5) / 2
    assert abs(quad_0_inf(lambda v: v**2 * h(v * v), 1e-10) - want) < 1e-12 * want
