import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradus import (
    FieldConfig,
    Polynomial,
    SeedStream,
    annihilator_quadric,
    ci_smooth,
    colon_graded,
    extract_c,
    fermat_form,
    graded_dim,
    is_smooth_hypersurface,
    jacobian_graded,
    kernel,
    macaulay_pairing_matrix,
    milnor_dim,
    milnor_profile,
    monomial_index,
    monomials,
    parse_poly,
    perp_graded,
    polar_pair,
    random_poly,
    random_scalar,
    rank,
    socle_functional,
    span,
    special_q,
)
from gradus import apolarity, linalg
from gradus.apolarity import (
    SocleFunctional,
    _contract,
    _jacobian_pairings,
    _jacobian_perp,
    _pairing_product,
    _pairing_weights,
    _quotient_rank,
    _socle_functional,
)
from gradus.errors import (
    CharacteristicError,
    DegeneratePairError,
    InternalInvariantError,
    NotSmoothError,
    PreconditionError,
)
from gradus.lefschetz import mult_map
from gradus.jacobian import _integer_rows, _milnor_sweep, partials
from gradus.linalg import _LIFT_PRIME, DEFAULT_PRIME, Matrix, _primitive, rank_mod

from .conftest import _seeded_smooth_cubics
from .oracles import (
    brute_colon_basis,
    colon_perp_cubic,
    contract_by_index_loop,
    hyperplane_annihilator_quadric,
    linear_substitution,
    pairing_by_differentiation,
    perp_by_involution,
    socle_by_kernel,
)

QQ = FieldConfig.rationals()


def test_perp_of_zero_subspace_is_everything():
    e = span(QQ, 5, 3, "x", [])
    p = perp_graded(e)
    assert p.dim == 35 and p.family == "y"


def test_perp_of_special_jacobian_contains_fermat(special_cubic):
    perp = perp_graded(jacobian_graded(special_cubic, 3))
    assert perp.dim == 10
    fy = fermat_form(QQ, 5, 3, family="y")
    assert not any(perp.reduce(fy.coeff_vector(3)))


def test_perp_of_monomial_line():
    vec = [QQ.zero] * 35
    vec[monomial_index(5, 3)[(3, 0, 0, 0, 0)]] = QQ.one
    e = span(QQ, 5, 3, "x", [vec])
    p = perp_graded(e)
    assert p.dim == 34
    y0cubed = [QQ.zero] * 35
    y0cubed[monomial_index(5, 3)[(3, 0, 0, 0, 0)]] = QQ.one
    assert any(p.reduce(y0cubed))


def test_perp_dimension_law_and_involution(smooth_cubics):
    f = smooth_cubics[0]
    j3 = jacobian_graded(f, 3)
    perp = perp_graded(j3)
    assert j3.dim + perp.dim == 35
    assert perp_graded(perp) == j3


def test_socle_functional_fermat(fermat):
    lam = socle_functional(fermat)
    assert lam.degree == 5
    idx = monomial_index(5, 5)[(1, 1, 1, 1, 1)]
    expect = [QQ.zero] * len(lam.vector)
    expect[idx] = QQ.one
    assert list(lam.vector) == expect


def test_socle_functional_kills_jacobian(smooth_cubics):
    f = smooth_cubics[1]
    lam = socle_functional(f)
    j5 = jacobian_graded(f, 5)
    assert all(sum(a * b for a, b in zip(lam.vector, row)) == 0 for row in j5.basis.rows)
    assert any(x != 0 for x in lam.vector)


def test_socle_functional_rejects_singular(special_cubic):
    with pytest.raises(NotSmoothError):
        socle_functional(special_cubic)


def test_socle_functional_scale_invariant(smooth_cubics):
    f = smooth_cubics[2]
    assert socle_functional(f).vector == socle_functional(f.scale(7)).vector


def test_macaulay_pairing_ranks(smooth_cubics):
    f = smooth_cubics[0]
    m2 = macaulay_pairing_matrix(f, 2)
    assert (m2.nrows, m2.ncols) == (10, 10) and rank(m2) == 10
    m0 = macaulay_pairing_matrix(f, 0)
    assert (m0.nrows, m0.ncols) == (1, 1) and m0.rows[0][0] != 0
    m5 = macaulay_pairing_matrix(f, 5)
    assert (m5.nrows, m5.ncols) == (1, 1) and rank(m5) == 1


def _unit_hyperplane(f, g):
    """{b in degree-3 : <b, G> = 0} computed directly."""
    weights = _pairing_weights(QQ, 5, 3)
    gvec = g.coeff_vector(3)
    row = [QQ.mul(c, w) for c, w in zip(gvec, weights)]
    null = kernel(Matrix(QQ, [row], 35))
    return span(QQ, 5, 3, "x", null.rows)


def test_annihilator_quadric_colon_identity(u_pairs):
    f, um, _ = u_pairs[0]
    g = um.witness
    qprime = annihilator_quadric(f, g)
    colon3 = colon_graded(f, qprime, 3)
    assert colon3 == _unit_hyperplane(f, g)
    assert colon3.dim == 34


def test_annihilator_quadric_scaling_invariance(u_pairs):
    f, um, _ = u_pairs[1]
    g = um.witness
    assert annihilator_quadric(f, g) == annihilator_quadric(f, g.scale(Fraction(5, 3)))


def test_annihilator_quadric_rejects_bad_witness(smooth_cubics):
    f = smooth_cubics[0]
    bad = fermat_form(QQ, 5, 3, family="y")
    with pytest.raises(PreconditionError, match="perp"):
        annihilator_quadric(f, bad)


def test_colon_generic_pair_is_zero_in_degree_one(smooth_cubics):
    f = smooth_cubics[0]
    stream = SeedStream(404)
    q = random_poly(QQ, stream, 5, 2, 10)
    assert colon_graded(f, q, 1).dim == 0


def test_colon_with_jacobian_quadric_is_everything(smooth_cubics):
    f = smooth_cubics[3]
    q = f.partial(0)
    for k in (1, 2):
        assert colon_graded(f, q, k).dim == graded_dim(5, k)


def test_colon_contains_jacobian_piece(smooth_cubics):
    f = smooth_cubics[4]
    stream = SeedStream(77)
    q = random_poly(QQ, stream, 5, 2, 10)
    colon3 = colon_graded(f, q, 3)
    j3 = jacobian_graded(f, 3)
    # J_3's rows join the colon's and span nothing new
    assert span(QQ, 5, 3, "x", colon3.basis.rows + j3.basis.rows) == colon3


def test_colon_invariant_under_jacobian_perturbation(smooth_cubics):
    stream = SeedStream(3000)
    for f in smooth_cubics[:5]:
        q = random_poly(QQ, stream, 5, 2, 10)
        pert = Polynomial.zero(QQ, 5)
        for i in range(5):
            pert = pert + f.partial(i).scale(stream.randint(-10, 10))
        for k in (1, 3):
            assert colon_graded(f, q, k) == colon_graded(f, q + pert, k)


def test_colon_brute_force_oracle_small():
    # two variables keeps the stacked system tiny
    f = parse_poly("x0^4 + x1^4 + x0*x1^3", QQ)
    for q_text, k in (("x0^2 + 2*x1^2", 1), ("x0*x1", 2), ("x0^2 - x1^2", 3)):
        q = parse_poly(q_text, QQ)
        assert colon_graded(f, q, k) == brute_colon_basis(f, q, k)


def test_colon_brute_force_oracle_three_vars():
    f = parse_poly("x0^3 + x1^3 + x2^3 - x0*x1*x2", QQ)
    stream = SeedStream(1234)
    for k in (1, 2):
        q = random_poly(QQ, stream, 3, 2, 4)
        assert colon_graded(f, q, k) == brute_colon_basis(f, q, k)


def test_extract_c_equals_witness(u_pairs):
    f, um, cert = u_pairs[0]
    assert cert.c == um.witness.normalized()
    assert extract_c(f, cert.q).poly == cert.c


def test_extract_c_invariant_under_rescaling(u_pairs):
    f, _, cert = u_pairs[2]
    c1 = extract_c(f, cert.q).poly
    c2 = extract_c(f.scale(3), cert.q.scale(Fraction(2, 7))).poly
    assert c1 == c2


def test_extract_c_degenerate_pair_reports_dimension(smooth_cubics, fermat):
    # (F, Q, dim of the perp of (J_F : Q) in degree 3); one test, so the id
    # stays stable, over a table of cases
    cases = [
        (smooth_cubics[0], smooth_cubics[0].partial(0), 0),
        (fermat, Polynomial.zero(QQ, 5), 0),
        (fermat, Polynomial.constant(QQ, 5, QQ.one), 10),
        (fermat, parse_poly("x0", QQ, nvars=5), 4),
        (fermat, parse_poly("x0^3", QQ, nvars=5), 0),
        (fermat, fermat.partial(0), 0),
    ]
    for f, q, dim in cases:
        with pytest.raises(DegeneratePairError, match="the pair .* is degenerate") as err:
            extract_c(f, q)
        assert err.value.dim == dim, (str(q), err.value.dim)
        assert str(err.value).startswith(f"colon perp has dimension {dim};")


def test_perp_in_prime_field_needs_large_characteristic():
    f5 = FieldConfig.prime_field(5)
    e = span(f5, 5, 5, "x", [])
    with pytest.raises(CharacteristicError):
        perp_graded(e)


# ---------------------------------------------------------------------------
# the socle contractions against the routes they replaced (tests/oracles.py)

ORACLE_FIELDS = (QQ, FieldConfig.prime_field(10007), FieldConfig.prime_field(2147483629))


@st.composite
def smooth_forms_with_witness(draw):
    """(F, G): a smooth form in 3 or 4 variables over Q or F_p and a nonzero
    dual form G in the perp of its degree-d Jacobian piece."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    nvars, d = draw(st.sampled_from(((3, 3), (3, 4), (4, 3))))
    f = random_poly(field, SeedStream(draw(st.integers(0, 2**32))), nvars, d, 5)
    assume(not f.is_zero() and is_smooth_hypersurface(f).is_smooth)
    perp = perp_graded(jacobian_graded(f, d))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=perp.dim, max_size=perp.dim))
    g = [field.zero] * perp.ambient_dim
    for c, row in zip(coeffs, perp.basis.rows):
        g = [field.add(x, field.mul(field.coerce(c), y)) for x, y in zip(g, row)]
    assume(any(x != field.zero for x in g))
    return f, Polynomial.from_vector(field, nvars, "y", d, g)


def assert_extract_c_matches_oracle(f, q):
    try:
        expected = colon_perp_cubic(f, q)
    except DegeneratePairError as err:
        with pytest.raises(DegeneratePairError) as got:
            extract_c(f, q)
        assert got.value.dim == err.dim
    else:
        assert extract_c(f, q).poly == expected


@settings(max_examples=40, deadline=None)
@given(smooth_forms_with_witness(), st.integers(0, 2**32), st.integers(0, 3))
def test_contraction_routes_match_old_routes(case, seed, extra_degree):
    f, g = case
    q = annihilator_quadric(f, g)
    assert q == hyperplane_annihilator_quadric(f, g)
    assert_extract_c_matches_oracle(f, q)
    # a random q of degree T - d + 1 - extra_degree: the perp line, a wider
    # span, or (above T - d) nothing
    t = f.nvars * (f.homogeneous_degree() - 2)
    e = t - f.homogeneous_degree() + 1 - extra_degree
    if e >= 0:
        q2 = random_poly(f.field, SeedStream(seed), f.nvars, e, 5)
        if not q2.is_zero():
            assert_extract_c_matches_oracle(f, q2)


@st.composite
def smooth_rational_cubics(draw):
    """(F, G, h): a smooth cubic in 3-5 variables over Q, with fractional
    coefficients half the time, a nonzero G in the perp of J_(F,3), and a
    nonzero form h of degree 1-3 with coefficients p/q."""
    nvars = draw(st.sampled_from((3, 4, 5)))
    stream = SeedStream(draw(st.integers(0, 2**32)))
    f = random_poly(QQ, stream, nvars, 3, 10)
    if draw(st.booleans()):
        f = f + random_poly(QQ, stream, nvars, 3, 4).scale(Fraction(1, draw(st.integers(2, 9))))
    assume(not f.is_zero() and is_smooth_hypersurface(f).is_smooth)
    perp = perp_graded(jacobian_graded(f, 3))
    g = [QQ.zero] * perp.ambient_dim
    for row in perp.basis.rows:
        c = QQ.coerce(draw(st.integers(-3, 3)))
        g = [x + c * y for x, y in zip(g, row)]
    assume(any(g))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    e = draw(st.integers(1, 3))
    h = Polynomial.from_vector(QQ, nvars, "x", e, draw(st.lists(entry, min_size=graded_dim(nvars, e),
                                                                max_size=graded_dim(nvars, e))))
    assume(not h.is_zero())
    return f, Polynomial.from_vector(QQ, nvars, "y", 3, g), h


@settings(max_examples=15, deadline=None)
@given(smooth_rational_cubics())
def test_integer_socle_routes_match_fraction_routes(case):
    # lambda from the lift is the normalized kernel row, its integers N/L
    # are primitive, and the integer contraction and annihilator quadric
    # equal the Fraction loops
    f, g, h = case
    lam = socle_functional(f)
    assert lam.vector == socle_by_kernel(f)
    nums, den = lam.integral
    assert [Fraction(x, den) for x in nums] == list(lam.vector) and math.gcd(*nums) == 1
    assert _contract(lam, h) == contract_by_index_loop(lam, h)
    assert annihilator_quadric(f, g) == hyperplane_annihilator_quadric(f, g)


def test_contraction_routes_match_old_routes_on_u_pairs(u_pairs):
    for f, um, cert in u_pairs:
        assert cert.q_base == hyperplane_annihilator_quadric(f, um.witness)
        assert cert.c == colon_perp_cubic(f, cert.q)


@st.composite
def graded_subspaces(draw):
    """A subspace of a small graded piece over Q or F_p, p > its degree."""
    nvars, degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    p = draw(st.sampled_from((None, 5, 101, 10007, 2147483629)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    ncols = graded_dim(nvars, degree)
    entry = st.integers(-3, 3).map(field.coerce)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=ncols + 1))
    return span(field, nvars, degree, "x", rows)


@settings(max_examples=80, deadline=None)
@given(graded_subspaces())
def test_perp_involution_and_pairing_oracle(e):
    p = perp_graded(e)
    assert p.family == "y" and e.dim + p.dim == e.ambient_dim
    assert perp_graded(p) == e
    zero = e.field.zero
    for a in e.basis.rows:
        fa = Polynomial.from_vector(e.field, e.nvars, "x", e.degree, a)
        for b in p.basis.rows:
            gb = Polynomial.from_vector(e.field, e.nvars, "y", e.degree, b)
            assert pairing_by_differentiation(fa, gb) == zero


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(0, 7))
def test_perp_needs_characteristic_above_degree(p, nvars, degree):
    e = span(FieldConfig.prime_field(p), nvars, degree, "x", [])
    if p <= degree:
        with pytest.raises(CharacteristicError):
            perp_graded(e)
    else:
        assert perp_graded(e).dim == e.ambient_dim


# ---------------------------------------------------------------------------
# the perp and the socle functional from rref null vectors, against the
# kernel routes they replaced (tests/oracles.py)


@st.composite
def jacobian_pieces(draw):
    """J_k, k in 0..T+1, of a cubic in 3 or 4 variables: a random draw,
    smooth or not, the special nodal form, or a random combination of the
    squarefree cubic monomials (singular at the coordinate points); over Q,
    F_10007, the least prime above k, or a prime at most k."""
    nvars = draw(st.sampled_from((3, 4)))
    k = draw(st.integers(0, nvars + 1))
    small = [p for p in (2, 3, 5) if p <= k]
    p = draw(st.sampled_from([None, 10007, next(q for q in (2, 3, 5, 7) if q > k), *small]))
    field = QQ if p is None else FieldConfig.prime_field(p)
    stream = SeedStream(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "special", "nodal")))
    if kind == "special":
        f = special_q(field, nvars - 1, 3)
    else:
        mons = [m for m in monomials(nvars, 3) if kind == "random" or max(m) == 1]
        f = Polynomial(field, nvars, "x", {m: random_scalar(field, stream, 5) for m in mons})
    assume(not f.is_zero())
    return jacobian_graded(f, k)


@settings(max_examples=60, deadline=None)
@given(jacobian_pieces())
def test_perp_matches_kernel_route_with_involution(e):
    field = e.field
    too_small = not field.is_rational and field.modulus <= e.degree
    try:
        expected = perp_by_involution(e)
    except CharacteristicError:
        assert too_small
        with pytest.raises(CharacteristicError):
            perp_graded(e)
    else:
        assert not too_small
        assert perp_graded(e) == expected


def test_socle_functional_matches_kernel_route(smooth_cubics, special_cubic):
    fp = FieldConfig.prime_field(10007)
    for f in [*smooth_cubics[:3], *_seeded_smooth_cubics(fp, 3)]:
        assert _socle_functional(f).vector == socle_by_kernel(f)
    assert socle_by_kernel(special_cubic) is None
    with pytest.raises(NotSmoothError, match="socle is 5-dimensional"):
        _socle_functional(special_cubic)


# the `_elimination_dtype` branches: int32 (101, 10007), int64 (46349) and
# `object` (2^61 - 1)
SOCLE_PRIMES = (101, 10007, 46349, (1 << 61) - 1)


@st.composite
def prime_field_forms(draw):
    """Forms over F_p, p in SOCLE_PRIMES: cubics in 3-5 variables, quartics
    in 3 and quadrics (T = 0).  Dense ones, or with no monomial of x0-degree
    above `top`: d - 2 makes them singular at e0 (h_T = 1 for a node), 0
    makes them cones over e0 (h_T > 1 for T > 0)."""
    field = FieldConfig.prime_field(draw(st.sampled_from(SOCLE_PRIMES)))
    nvars, d = draw(st.sampled_from([(3, 3), (4, 3), (5, 3), (3, 4), (3, 2), (4, 2)]))
    mons = monomials(nvars, d)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(mons), max_size=len(mons)))
    top = draw(st.sampled_from([d, d - 2, 0]))
    terms = {m: c % field.modulus for m, c in zip(mons, coeffs) if c and m[0] <= top}
    assume(terms)
    return Polynomial(field, nvars, "x", terms)


@settings(max_examples=40, deadline=None)
@given(prime_field_forms())
def test_socle_off_the_sweep_matches_kernel_route(f):
    # lambda over F_p is the sweep's degree-T normal form, scaled to lead
    # with 1: the normalized kernel row of J_T, or NotSmoothError naming
    # the kernel's dimension when that is not 1
    t = f.nvars * (f.homogeneous_degree() - 2)
    dim = kernel(jacobian_graded(f, t).basis).nrows
    if dim == 1:
        assert _socle_functional(f).vector == socle_by_kernel(f)
    else:
        with pytest.raises(NotSmoothError, match=f"socle is {dim}-dimensional at degree {t};"):
            _socle_functional(f)


@st.composite
def smooth_rational_forms(draw):
    """Seeded dense forms over Q with coefficients in [-5, 5], certified
    smooth: cubics in 3-5 variables and quartics in 3 and 4."""
    nvars, d = draw(st.sampled_from([(3, 3), (4, 3), (5, 3), (3, 4), (4, 4)]))
    f = random_poly(QQ, SeedStream(draw(st.integers(0, 2**32))), nvars, d, 5)
    assume(not f.is_zero() and is_smooth_hypersurface(f).is_smooth)
    return f


@settings(max_examples=12, deadline=None)
@given(smooth_rational_forms())
def test_socle_over_q_matches_kernel_route(f):
    # lambda over Q is J_T's null line, from one elimination of [A^T | I]
    # mod the lift prime and its p-adic lift: the normalized kernel row of
    # J_T's rref basis
    assert _socle_functional(f).vector == socle_by_kernel(f)


@pytest.mark.parametrize("modulus", [10007, _LIFT_PRIME])
def test_socle_over_q_of_a_form_singular_mod_p(modulus):
    # special_q + p*Fermat is smooth over Q and special_q mod p.  Mod 10007
    # the sweep reads h_5 = 5, so dim (S/J_F)_5 = 1 comes from the rref
    # route; mod the lift prime J_5 loses rank, so the next prime lifts
    f = special_q(QQ, 4, 3) + fermat_form(QQ, 5, 3).scale(modulus)
    rows = _integer_rows(partials(f), 5).tolist()  # integers, not residues
    if modulus == 10007:
        assert _milnor_sweep(f.normalized()).hs[5] == 5
    else:
        assert rank_mod(rows, 126, _LIFT_PRIME) < 125 == rank_mod(rows, 126, 10007)
    assert _socle_functional(f).vector == socle_by_kernel(f)


def test_socle_over_q_names_the_socle_dimension(special_cubic):
    with pytest.raises(NotSmoothError, match=r"^socle is 5-dimensional at degree 5; expected 1$"):
        _socle_functional(special_cubic)


@pytest.mark.parametrize("field", [QQ, FieldConfig.prime_field(10007)])
@pytest.mark.parametrize(
    "corruption, message",
    [("shift", "does not pair to zero"), ("drop", "dimension law")],
)
def test_perp_check_catches_corrupted_null_vectors(monkeypatch, field, corruption, message):
    # the kernel's vectors, corrupted.  shift: the first gains the unit
    # vector e_c, c the first column that leads none of them, so it stays
    # independent of the others but E no longer kills it; drop: one fewer
    j3 = jacobian_graded(fermat_form(field, 5, 3), 3)
    honest = linalg._kernel_rows

    def corrupted(field, rows, ncols):
        (first, *rest), rk = honest(field, rows, ncols)
        if corruption == "drop":
            return rest, rk
        leads = {next(c for c, x in enumerate(v) if x) for v in (first, *rest)}
        c = min(set(range(ncols)) - leads)
        first = list(first)
        first[c] = field.add(first[c], field.one)
        return [first, *rest], rk

    monkeypatch.setattr(linalg, "_kernel_rows", corrupted)
    with pytest.raises(InternalInvariantError, match=message):
        perp_graded(j3)


@settings(max_examples=60, deadline=None)
@given(graded_subspaces(), st.data())
def test_pairings_vanish_exactly_where_polar_pair_does(e, data):
    field, n = e.field, e.ambient_dim
    entry = st.integers(-3, 3).map(field.coerce)
    duals = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    duals += perp_graded(e).basis.rows[:1]  # a dual pairing to zero with all of e
    got = _pairing_product(field, e.nvars, e.degree, e.basis.rows, duals)
    assert got.shape == (e.dim, len(duals))
    for i, b in enumerate(e.basis.rows):
        fb = Polynomial.from_vector(field, e.nvars, "x", e.degree, b)
        for j, g in enumerate(duals):
            gy = Polynomial.from_vector(field, e.nvars, "y", e.degree, g)
            assert (got[i, j] == 0) == (polar_pair(fb, gy) == field.zero)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 10007, 2147483629)),
    st.sampled_from(((2, 3), (2, 4), (3, 3))),
    st.integers(0, 2**32),
    st.integers(1, 2),
    st.integers(0, 3),
)
def test_colon_matches_brute_force_over_prime_fields(p, shape, seed, e, k):
    field = FieldConfig.prime_field(p)
    nvars, d = shape
    stream = SeedStream(seed)
    f = random_poly(field, stream, nvars, d, 5)
    q = random_poly(field, stream, nvars, e, 5)
    assume(not f.is_zero() and not q.is_zero())
    assert colon_graded(f, q, k) == brute_colon_basis(f, q, k)


def test_contraction_check_is_at_least_as_strong_as_colon_equality(smooth_cubics):
    """construct_pair's colon-invariance check compares the contractions of
    q_base and q: equal after a Jacobian perturbation, and unequal whenever
    the degree-3 colons differ."""
    stream = SeedStream(4242)
    for f in smooth_cubics[:3]:
        lam = socle_functional(f)
        q = random_poly(QQ, stream, 5, 2, 10)
        pert = Polynomial.zero(QQ, 5)
        for i in range(5):
            pert = pert + f.partial(i).scale(stream.randint(-10, 10))
        assert _contract(lam, q) == _contract(lam, q + pert)
        other = q + random_poly(QQ, stream, 5, 2, 10)
        assert colon_graded(f, q, 3) != colon_graded(f, other, 3)
        assert _contract(lam, q) != _contract(lam, other)


def test_macaulay_pairing_entries_are_socle_products(smooth_cubics):
    f = smooth_cubics[1]
    lam = socle_functional(f)
    for j in (1, 2):
        m = macaulay_pairing_matrix(f, j)
        mons_j, mons_tj = monomials(5, j), monomials(5, 5 - j)
        cols_j = jacobian_graded(f, j).complement_columns
        cols_tj = jacobian_graded(f, 5 - j).complement_columns
        for row, a in zip(m.rows, cols_j):
            for x, b in zip(row, cols_tj):
                prod = Polynomial(QQ, 5, "x", {mons_j[a]: 1}) * Polynomial(QQ, 5, "x", {mons_tj[b]: 1})
                assert x == sum(u * v for u, v in zip(lam.vector, prod.coeff_vector(5)))


@st.composite
def functionals_and_forms(draw):
    """(lambda, h): any functional on a small top degree T over Q or F_p, and
    a nonzero form h of degree at most T + 1."""
    p = draw(st.sampled_from((None, 5, 101, 10007, 2147483629)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    nvars, t = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    e = draw(st.integers(0, t + 1))
    entry = st.integers(-5, 5)
    if p is None and draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    n_t, n_e = graded_dim(nvars, t), graded_dim(nvars, e)
    vector = draw(st.lists(entry.map(field.coerce), min_size=n_t, max_size=n_t))
    coeffs = draw(st.lists(entry.map(field.coerce), min_size=n_e, max_size=n_e))
    h = Polynomial.from_vector(field, nvars, "x", e, coeffs)
    assume(not h.is_zero())
    return SocleFunctional(field, nvars, t, tuple(vector)), h


@settings(max_examples=150, deadline=None)
@given(functionals_and_forms())
def test_contract_matches_index_loop(case):
    lam, h = case
    assert _contract(lam, h) == contract_by_index_loop(lam, h)


# ---------------------------------------------------------------------------
# the perp from the generator rows and the rank from the socle catalecticant,
# against the J-basis routes


@st.composite
def forms_and_degrees(draw):
    """(F, k): a cubic in 3 or 4 variables or a quartic in 3, random (smooth
    or not) or singular at e0, over Q, F_10007 or a prime at most 5, and k
    in 0..T+1."""
    nvars, d = draw(st.sampled_from(((3, 3), (4, 3), (3, 4))))
    p = draw(st.sampled_from((None, 10007, 2, 3, 5)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    stream = SeedStream(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from((d, d - 2)))
    terms = {m: random_scalar(field, stream, 5) for m in monomials(nvars, d) if m[0] <= top}
    f = Polynomial(field, nvars, "x", terms)
    assume(not f.is_zero())
    return f, draw(st.integers(0, nvars * (d - 2) + 1))


@settings(max_examples=40, deadline=None)
@given(forms_and_degrees(), st.data())
def test_generator_row_perp_matches_perp_of_the_jacobian_basis(case, data):
    f, k = case
    try:
        expected = perp_graded(jacobian_graded(f, k))
    except CharacteristicError:
        with pytest.raises(CharacteristicError):
            _jacobian_perp(f, k)
        return
    assert _jacobian_perp(f, k) == expected
    # the pairing check on the generator rows vanishes where the one on the
    # J_k basis does: on the perp, and off it
    field, n, rows = f.field, expected.ambient_dim, jacobian_graded(f, k).basis.rows
    entry = st.integers(-2, 2).map(field.coerce)
    for g in [*expected.basis.rows[:1], data.draw(st.lists(entry, min_size=n, max_size=n))]:
        expected_pairs = _pairing_product(field, f.nvars, k, rows, [g])
        assert _jacobian_pairings(f, k, g).any() == expected_pairs.any()


@st.composite
def smooth_forms_and_multipliers(draw):
    """(F, g, k): a smooth cubic in 3-5 variables or quartic in 3-4 over Q
    or F_10007; g a random linear form, a power of one, a quadric, or the
    primitive dF/dx0 + 10007*h for a random h of degree d-1, which lies in
    J_F mod 10007, so over Q its rank mod p is 0 at every k and the exact
    route decides; k in 0..T + 1 - deg g, the last one into
    (S/J_F)_(T+1) = 0."""
    field = draw(st.sampled_from((QQ, FieldConfig.prime_field(10007))))
    nvars, d = draw(st.sampled_from(((3, 3), (4, 3), (5, 3), (3, 4), (4, 4))))
    stream = SeedStream(draw(st.integers(0, 2**32)))
    f = random_poly(field, stream, nvars, d, 3)
    assume(not f.is_zero() and is_smooth_hypersurface(f).is_smooth)
    t = nvars * (d - 2)
    kind = draw(st.sampled_from(("linear", "power", "quadric", "jacobian")))
    if kind == "quadric":
        g = random_poly(field, stream, nvars, 2, 3)
    elif kind == "jacobian":
        df0 = {m: field.coerce(v) for m, v in _primitive(partials(f)[0].terms).items()}
        g = Polynomial(field, nvars, "x", df0) + random_poly(field, stream, nvars, d - 1, 3).scale(10007)
    else:
        g = random_poly(field, stream, nvars, 1, 3)
        g = g.pow(draw(st.integers(2, t))) if kind == "power" else g
    assume(not g.is_zero())
    return f, g, draw(st.integers(0, max(t + 1 - g.homogeneous_degree(), 0)))


@settings(max_examples=25, deadline=None)
@given(smooth_forms_and_multipliers())
def test_quotient_rank_matches_multiplication_map(case):
    f, g, k = case
    rk = _quotient_rank(f, g, k)
    assert rk == rank(mult_map(f, g, k))
    if g.homogeneous_degree() == 2:
        assert graded_dim(f.nvars, k) - rk == colon_graded(f, g, k).dim


def test_quotient_rank_falls_back_to_the_exact_rank(monkeypatch):
    # F = x0^3 + x1^3 + x2^3 at k = 1, where min(h_1, h_2) = 3.  Mod p,
    # x0 + p*x1 + p*x2 is x0, of rank 2 off the sweep record, so over Q
    # lambda's own catalecticant decides, and gives 3.  A rank mod p that
    # reaches the bound is returned with no exact elimination, and over
    # F_p the rank mod p is the answer
    p = DEFAULT_PRIME
    fp = FieldConfig.prime_field(p)

    def ternary(text, field=QQ):
        return parse_poly(text, field, nvars=3)

    f, g = ternary("x0^3 + x1^3 + x2^3"), ternary(f"x0 + {p}*x1 + {p}*x2")
    exact = []
    socle = apolarity.socle_functional
    monkeypatch.setattr(apolarity, "socle_functional", lambda f: exact.append(f) or socle(f))
    assert _quotient_rank(ternary(str(f), fp), ternary(str(g), fp), 1) == 2
    assert _quotient_rank(f, g, 1) == 3 == rank(mult_map(f, g, 1)) and len(exact) == 1
    assert _quotient_rank(f, ternary("x0"), 1) == 2 and len(exact) == 2
    monkeypatch.setattr(linalg, "_null_space", lambda *a: pytest.fail("exact elimination"))
    assert _quotient_rank(f, ternary("x0 + x1 + x2"), 1) == 3
    assert _quotient_rank(ternary(str(f), fp), ternary("x0", fp), 1) == 2
    assert len(exact) == 2


# ---------------------------------------------------------------------------
# covariance: J_(F o A) = {h o A : h in J_F} for an invertible A, so every
# reader of the Milnor sweep moves as the mathematics says

# MIXING has determinant 12.  BAD_REDUCTION is I but A[3][4] = 1 and
# A[4][4] = 10007: F o A mod 10007 is a cone, so its sweep there is
# deficient and over Q the certificate, the profile and the ranks take
# their exact routes
MIXING = ((1, 2, 0, -1, 0), (0, 1, -1, 0, 2), (0, 1, 1, 2, 0), (1, 0, 0, 1, 0), (0, -2, 0, 1, 1))
BAD_REDUCTION = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 10007))


@pytest.mark.parametrize("p, a", [(None, MIXING), (None, BAD_REDUCTION), (10007, MIXING)],
                         ids=["q-mixing", "q-bad-reduction", "fp-mixing"])
def test_sweep_readers_are_covariant(smooth_cubics, nodal_cubic, p, a):
    field = QQ if p is None else FieldConfig.prime_field(p)
    forms = [f if p is None else parse_poly(str(f), field, nvars=5) for f in smooth_cubics[:2]]
    nodal = [nodal_cubic] if (p, a) == (None, MIXING) else []
    moved_forms = [(f, linear_substitution(f, a)) for f in forms + nodal]
    for f, fa in moved_forms:
        assert is_smooth_hypersurface(fa).verdict == is_smooth_hypersurface(f).verdict
        assert milnor_profile(fa) == milnor_profile(f)
        assert milnor_dim(fa, 6) == milnor_dim(f, 6)
    # the integer coefficients of m o A for the monomials m of degree T = 5
    moved = [[int(x) for x in linear_substitution(Polynomial(field, 5, "x", {m: 1}), a)
              .coeff_vector(5)] for m in monomials(5, 5)]
    for f, fa in moved_forms[:len(forms)]:
        # lambda_(F o A)(m o A) = c * lambda_F(m), one c != 0 for every m in
        # S_T: on the integers N = L * lambda of both functionals
        lam, lam_a = socle_functional(f).integral[0], socle_functional(fa).integral[0]
        pulled = [field.coerce(sum(x * y for x, y in zip(lam_a, v))) for v in moved]
        i = next(i for i, x in enumerate(lam) if x)
        c = field.mul(pulled[i], field.inv(field.coerce(lam[i])))
        assert c != field.zero and pulled == [field.mul(c, field.coerce(x)) for x in lam]
        stream = SeedStream(29)
        for g in (random_poly(field, stream, 5, 1, 10), random_poly(field, stream, 5, 2, 10)):
            ga, e = linear_substitution(g, a), g.degree()
            assert [_quotient_rank(fa, ga, k) for k in range(6 - e)] == [
                _quotient_rank(f, g, k) for k in range(6 - e)]
    if a == MIXING:
        # ci_smooth(F o A, Q o A) never swaps smooth and singular: at kmax 8
        # the seeded cubics with a smooth quadric read smooth on both sides,
        # the Fermat cubic with x0^2 singular
        quadric, square = (parse_poly(t, field, nvars=5) for t in ("x0*x1 + x2*x3 + x4^2", "x0^2"))
        pairs = [(f, quadric) for f in forms] + [(fermat_form(field, 5, 3), square)]
        for (f, q), want in zip(pairs, ("smooth", "smooth", "singular")):
            moved = (linear_substitution(f, a), linear_substitution(q, a))
            assert ci_smooth(f, q, 8).verdict == ci_smooth(*moved, 8).verdict == want


def _inverse_transpose(a) -> list:
    """A^-T over Q for an integer matrix A, read off the rref of [A | I] and
    checked against A by plain products."""
    n = len(a)
    aug = [[*map(Fraction, row), *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(a)]
    inv = [row[n:] for row in linalg.rref(Matrix(QQ, aug, 2 * n))[0].rows]
    assert all(sum(a[i][k] * inv[k][j] for k in range(n)) == (i == j) for i in range(n) for j in range(n))
    return [list(col) for col in zip(*inv)]


@pytest.mark.parametrize("p", [None, 10007], ids=["q", "fp"])
def test_extract_c_is_covariant(u_pairs, p):
    # C(F o A, Q o A) = (C o A^-T).normalized() under MIXING: the colon
    # moves with A, and its perp, a dual form, with A^-T.  So the colon's
    # pieces keep their dimensions, and as C o A^-T is to F o A what C is
    # to F, the annihilator quadric of (F o A, C o A^-T) is Q' o A, Q' =
    # annihilator_quadric(F, C), up to J_2(F o A) and scale.  Two certified
    # pairs, with C smooth, and the golden (Fermat, Q) pair, with C singular
    field = QQ if p is None else FieldConfig.prime_field(p)
    inv_t = [[field.coerce(x) for x in row] for row in _inverse_transpose(MIXING)]
    texts = [(str(f), str(cert.q)) for f, _, cert in u_pairs[:2]]
    texts.append(("x0^3+x1^3+x2^3+x3^3+x4^3", "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3"))
    for f, q in ((parse_poly(t, field, nvars=5) for t in pair) for pair in texts):
        fa, qa = linear_substitution(f, MIXING), linear_substitution(q, MIXING)
        c = extract_c(f, q).poly
        ca = linear_substitution(c, inv_t)
        assert extract_c(fa, qa).poly == ca.normalized()
        assert [colon_graded(fa, qa, k).dim for k in (1, 2)] == [colon_graded(f, q, k).dim for k in (1, 2)]
        j2 = jacobian_graded(fa, 2)
        moved = j2.reduce(annihilator_quadric(fa, ca).coeff_vector(2))
        pulled = j2.reduce(linear_substitution(annihilator_quadric(f, c), MIXING).coeff_vector(2))
        i = next(i for i, x in enumerate(pulled) if x)
        scale = field.mul(moved[i], field.inv(pulled[i]))
        assert scale != field.zero and moved == [field.mul(scale, x) for x in pulled]
