import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradus import (
    DEFAULT_PRIME,
    FieldConfig,
    Polynomial,
    SeedStream,
    SmoothnessCertificate,
    ci_smooth,
    fermat_form,
    graded_dim,
    ideal_graded,
    is_smooth_hypersurface,
    jacobian_graded,
    milnor_dim,
    milnor_profile,
    monomials,
    parse_poly,
    projective_empty,
    random_poly,
    random_scalar,
    smooth_reference_dims,
    socle_functional,
    span,
    special_q,
)
from gradus import jacobian, linalg
from gradus.apolarity import _socle_functional
from gradus.errors import BudgetExhaustedError, PreconditionError, ZeroPolynomialError
from gradus.jacobian import (
    MACAULAY_CELLS,
    SCAN_CELLS,
    SKELETON_MEMO_DIM,
    _by_degree,
    _common_zeros_mod,
    _integer_rows,
    _milnor_sweep,
    _partials_table,
    _quotient_dims_mod,
    _shifted_rows,
    partials,
)
from gradus.linalg import _primitive
from gradus.poly import monomial_index, random_linear_form

from .oracles import (
    ci_smooth_by_fraction_minors,
    macaulay_quotient_dim,
    milnor_dims_by_rref,
    naive_common_zeros,
    product_rows,
    smoothness_by_rref,
    socle_by_kernel,
)
from .test_linalg import ELIMINATION_PRIMES

QQ = FieldConfig.rationals()


def test_jacobian_dims_for_special_form(special_cubic):
    assert jacobian_graded(special_cubic, 3).dim == 25
    assert jacobian_graded(special_cubic, 4).dim == 65
    # degree d-2: no multiples of the partials yet
    assert jacobian_graded(special_cubic, 1).dim == 0


def test_jacobian_degree4_equals_monomial_span(special_cubic):
    j4 = jacobian_graded(special_cubic, 4)
    pure = {tuple(4 if i == j else 0 for i in range(5)) for j in range(5)}
    rows = []
    for i, m in enumerate(monomials(5, 4)):
        if m in pure:
            continue
        vec = [QQ.zero] * graded_dim(5, 4)
        vec[i] = QQ.one
        rows.append(vec)
    assert j4 == span(QQ, 5, 4, "x", rows)


def test_milnor_dims(special_cubic, fermat):
    assert milnor_dim(special_cubic, 3) == 10
    assert milnor_dim(special_cubic, 5) == 5
    assert milnor_dim(fermat, 6) == 0


def test_smooth_reference_dims():
    assert smooth_reference_dims(5, 3) == [1, 5, 10, 10, 5, 1]
    assert smooth_reference_dims(4, 2) == [1]
    assert smooth_reference_dims(3, 4) == [1, 3, 6, 7, 6, 3, 1]
    with pytest.raises(PreconditionError):
        smooth_reference_dims(5, 1)


def test_is_smooth_fermat(fermat):
    cert = is_smooth_hypersurface(fermat)
    assert cert.is_smooth and cert.degree == 6


def test_is_smooth_special_form_singular(special_cubic):
    cert = is_smooth_hypersurface(special_cubic)
    assert cert.verdict == "singular"
    assert cert.witness_point is not None


def test_is_smooth_nodal_cubic_exact_certificate(nodal_cubic):
    # the rank deficiency mod 10007 sends this input to the exact fallback;
    # certificate and note bytes are those of the Fraction-free eliminator
    cert = is_smooth_hypersurface(nodal_cubic)
    assert cert == SmoothnessCertificate(
        "singular", 6, "rational", False, (1, 0, 0, 0, 0),
        note="Jacobian rank 209 < 210 at degree 6; singular point found over F_7",
    )


def test_is_smooth_cube_of_linear_form():
    p = parse_poly("x0^3", QQ, nvars=5)
    assert is_smooth_hypersurface(p).verdict == "singular"


def test_is_smooth_rejects_zero_and_inhomogeneous():
    with pytest.raises(ZeroPolynomialError):
        is_smooth_hypersurface(Polynomial.zero(QQ, 5))
    with pytest.raises(PreconditionError):
        is_smooth_hypersurface(parse_poly("x0^2 + x1", QQ, nvars=5))


def test_is_smooth_prime_field_promotion():
    f101 = FieldConfig.prime_field(101)
    p = parse_poly("x0^3+x1^3+x2^3+x3^3+x4^3", f101)
    cert = is_smooth_hypersurface(p)
    assert cert.is_smooth and cert.field_used == "fp:101"
    # each partial scaled to primitive integers on its own: 3*x0^2 + 2*x0*x1
    # survives mod 10007, so h = 1, 5, 10, 10, 5, 1, 0 and the verdict is
    # promoted; F's own gradient is 0 there mod 10007 (h_6 = 16)
    f = parse_poly("x1^3+x2^3+x3^3+x4^3+10007*x0^3+10007*x0^2*x1", QQ)
    cert = is_smooth_hypersurface(f)
    assert (cert.verdict, cert.promoted, cert.field_used) == ("smooth", True, "fp:10007")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.sampled_from((None, 7, 10007)),
    st.integers(-10**6, 10**6),
    st.integers(1, 50),
)
def test_smoothness_certificate_is_scale_free(fermat, special_cubic, nodal_cubic, i, p, num, den):
    # is_smooth_hypersurface caches on f.normalized(); that is sound because
    # the computation itself, uncached, gives c*f the certificate of f
    form = (fermat, special_cubic, nodal_cubic, parse_poly("x0^3+x1^3+x2^3-3*x0*x1*x2", QQ))[i]
    field = QQ if p is None else FieldConfig.prime_field(p)
    c = field.coerce(Fraction(num, den) if p is None else num)
    assume(c != field.zero)
    f = form if p is None else parse_poly(str(form), field, nvars=form.nvars)
    cert = is_smooth_hypersurface(f)
    assert _milnor_sweep.__wrapped__(f.scale(c)).certificate == cert
    assert is_smooth_hypersurface(f.scale(c)) == cert
    if (i, p) == (2, None):
        assert cert.field_used == "rational" and cert.witness_point == (1, 0, 0, 0, 0)


def test_milnor_profile_matches_reference_for_smooth_cubics(smooth_cubics):
    ref = smooth_reference_dims(5, 3)
    for f in smooth_cubics:
        prof = milnor_profile(f)
        assert list(prof.dims) == ref
        assert prof.t == 5


def test_milnor_symmetry(smooth_cubics):
    for f in smooth_cubics[:5]:
        prof = milnor_profile(f)
        assert list(prof.dims) == list(prof.dims)[::-1]


def test_ideal_graded_basics(fermat):
    field = QQ
    lin = [Polynomial.variable(field, 5, i) for i in range(5)]
    assert ideal_graded(lin, 1).dim == 5
    # principal ideal generated by a smooth cubic
    for k in (3, 4, 5):
        assert ideal_graded([fermat], k).dim == graded_dim(5, k - 3)
    parts = [fermat.partial(i) for i in range(5)]
    for k in (3, 4, 5, 6):
        assert ideal_graded(parts, k) == jacobian_graded(fermat, k)


def test_projective_empty_coordinates():
    lin = [Polynomial.variable(QQ, 5, i) for i in range(5)]
    res = projective_empty(lin, 4)
    assert res.certified and res.degree == 1


def test_projective_empty_inconclusive_for_positive_dimensional_locus():
    gens = [Polynomial.variable(QQ, 5, 0), Polynomial.variable(QQ, 5, 1)]
    res = projective_empty(gens, 8)
    assert not res.certified and res.degree is None


def test_projective_empty_partials_of_smooth_cubic(smooth_cubics):
    f = smooth_cubics[0]
    parts = [f.partial(i) for i in range(5)]
    res = projective_empty(parts, 8)
    assert res.certified and res.degree <= 6
    assert is_smooth_hypersurface(f).is_smooth


def test_ci_smooth_generic_quadric(fermat):
    stream = SeedStream(0)
    q = random_poly(QQ, stream, 5, 2, 5)
    cert = ci_smooth(fermat, q)
    assert cert.is_smooth and cert.degree <= 12


def test_ci_smooth_degenerate_quadric_not_smooth(fermat):
    q = parse_poly("x0^2", QQ, nvars=5)
    cert = ci_smooth(fermat, q)
    assert cert.verdict in ("singular", "inconclusive")
    assert cert.verdict == "singular"  # the F_7 point search decides this case
    assert cert.witness_point is not None


def test_ci_smooth_rejects_zero_and_offsize(fermat):
    with pytest.raises(ZeroPolynomialError):
        ci_smooth(fermat, Polynomial.zero(QQ, 5))
    cubic3 = parse_poly("x0^3 + x1^3 + x2^3", QQ)
    quad3 = parse_poly("x0^2 + x1^2 + x2^2", QQ)
    with pytest.raises(PreconditionError):
        ci_smooth(cubic3, quad3)


def _ci_system(f, q):
    """(F, Q, the 2x2 minors of the Jacobian matrix of (F, Q))."""
    minors = [
        f.partial(i) * q.partial(j) - f.partial(j) * q.partial(i)
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    return [f, q, *minors]


def test_monotone_fullness_during_sweep(fermat, u_pairs):
    # the sweep stops at the first full degree; the whole Macaulay matrices
    # one and two degrees further are full too
    f, _, cert = u_pairs[0]
    for gens in ([fermat.partial(i) for i in range(5)], _ci_system(f, cert.q)):
        res = projective_empty(gens, 8)
        assert res.certified
        for k in (res.degree + 1, res.degree + 2):
            assert macaulay_quotient_dim(gens, k, 10007) == 0, k


def test_ci_smooth_singular_only_on_an_exact_zero(fermat):
    # (1, 6, 0, 0, 0) is a common zero of (F, Q, minors) over F_7 but not a
    # rational one (Q = 7 there); at degree 7 the ideal is full mod 10007
    q = parse_poly("8*x0^2 - x1^2 + x2*x3 + x4^2 + x2*x4", QQ)
    cert = ci_smooth(fermat, q, 5)
    assert cert.verdict == "inconclusive" and cert.witness_point is None
    assert "(1, 6, 0, 0, 0) over F_7" in cert.note
    cert = ci_smooth(fermat, q)
    assert cert.verdict == "smooth" and cert.degree == 7
    # a singular verdict carries an exact zero of its own field
    x0sq = parse_poly("x0^2", QQ, nvars=5)
    cert = ci_smooth(fermat, x0sq)
    assert cert.verdict == "singular" and cert.field_used == "rational"
    assert fermat.evaluate(cert.witness_point) == x0sq.evaluate(cert.witness_point) == 0
    # over F_q the scan reads the same small lifts in F_q: (0, 1, 0, 0, -1)
    fp = FieldConfig.prime_field(10007)
    fermat_p = parse_poly("x0^3+x1^3+x2^3+x3^3+x4^3", fp)
    x0sq_p = parse_poly("x0^2", fp, nvars=5)
    cert = ci_smooth(fermat_p, x0sq_p)
    assert cert.verdict == "singular" and cert.field_used == "fp:10007"
    assert cert.witness_point == (0, 1, 0, 0, 10006)
    assert fermat_p.evaluate(cert.witness_point) == x0sq_p.evaluate(cert.witness_point) == 0


@st.composite
def generators(draw):
    """(g, k): a homogeneous form over Q (integer or fraction terms) or F_p,
    possibly zero, and a target degree possibly below deg g."""
    p = draw(st.sampled_from((None, 5, 101, 10007, 2147483629)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    nvars, e, k = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 5))
    entry = st.integers(-5, 5)
    if p is None and draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
    n = graded_dim(nvars, e)
    coeffs = draw(st.lists(entry.map(field.coerce), min_size=n, max_size=n))
    return Polynomial.from_vector(field, nvars, "x", e, coeffs), k


@settings(max_examples=150, deadline=None)
@given(generators())
def test_shifted_rows_match_polynomial_products(case):
    # g's field coefficients, and its row of primitive integers (residues
    # over F_p) in every Macaulay row, dense and sparse
    g, k = case
    e, want = g.degree(), product_rows([g], k)
    if e is not None and e <= k:
        assert _shifted_rows(np.array(g.coeff_vector(e), dtype=object), g.nvars, e, k).tolist() == want
    if g.field.is_rational and not g.is_zero():
        g = Polynomial(QQ, g.nvars, "x", {m: Fraction(v) for m, v in _primitive(g.terms).items()})
        want = product_rows([g], k)
    assert _integer_rows([g, g.scale(0)], k).tolist() == want
    assert _integer_rows([g], k, sparse=True) == [{c: v for c, v in enumerate(r) if v} for r in want]


@st.composite
def ideals(draw):
    """(gens, p): one to four forms of degrees 1-3 in 2-5 variables over Q or
    F_p, p from ELIMINATION_PRIMES (one generator: a principal ideal), and
    sometimes a generator that is 0 mod p (zero, or p times a form), or a
    nonzero constant."""
    p = draw(st.sampled_from(ELIMINATION_PRIMES))
    field = QQ if draw(st.booleans()) else FieldConfig.prime_field(p)
    nvars = draw(st.integers(2, 5))

    def form(e):
        n = graded_dim(nvars, e)
        coeffs = draw(st.lists(st.integers(-3, 3).map(field.coerce), min_size=n, max_size=n))
        return Polynomial.from_vector(field, nvars, "x", e, coeffs)

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 4)))]
    extra = draw(st.sampled_from((None, 0, p, "constant")))
    if extra == "constant":
        gens.append(Polynomial.constant(field, nvars, field.coerce(draw(st.integers(1, 3)))))
    elif extra is not None:
        gens.insert(draw(st.integers(0, len(gens))), gens[0].scale(extra))
    return gens, p


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_quotient_dims_match_macaulay_ranks(case):
    # every h_k up to degree 7, or while the oracle's Macaulay matrix has at
    # most 126 columns, and up to the first full degree: fullness is monotone
    gens, p = case
    nvars = gens[0].nvars
    for k, h in _quotient_dims_mod(_by_degree(gens), nvars, p):
        assert h == macaulay_quotient_dim(gens, k, p), (k, h)
        if h == 0 or k == 7 or graded_dim(nvars, k + 1) > 126:
            break


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1])
def test_quotient_dims_at_object_primes(p):
    # products of residues overflow int64 here; at 2^61-1 elimination runs
    # on Python ints too
    field = FieldConfig.prime_field(p)
    gens = [parse_poly(t, field) for t in ("3*x0^2 - x1*x2 + 5*x2^2", "x0*x1 - 7*x2^2", "x1^3 + x0*x2^2")]
    dims = [h for _, h in itertools.islice(_quotient_dims_mod(_by_degree(gens), 3, p), 8)]
    assert dims == [macaulay_quotient_dim(gens, k, p) for k in range(8)]
    assert dims[-1] == 0 and dims[1] == 3


def test_ci_smooth_degree_is_the_first_full_macaulay_degree(u_pairs):
    # Q from construct_pair: its primitive integer scaling has ~140-bit entries
    f, _, cert = u_pairs[0]
    q = cert.q
    assert max(abs(v) for v in _primitive(q.terms).values()).bit_length() > 120
    gens = _ci_system(f, q)
    dims = dict(itertools.islice(_quotient_dims_mod(_by_degree(gens), 5, 10007), 8))
    k = cert.y_smooth.degree
    assert k == 7 and cert.y_smooth.field_used == "fp:10007"
    # full at k and not at k - 1 >= 3, the largest generator degree
    for j in (1, 3, k - 1, k):
        assert dims[j] == macaulay_quotient_dim(gens, j, 10007), j
    assert dims[k - 1] > 0 and dims[k] == 0


@st.composite
def cubic_quadric_pairs(draw):
    """(F, Q, kmax, falsify): a dense cubic in 5 variables over Q (with
    fractional coefficients half the time) or F_p, and a quadric: a random
    one, one perturbed by the Jacobian ideal, a product of two linear forms
    (Y singular along a curve), or one free of x0 while F has no term of
    x0-degree >= 2 (Y singular at e0)."""
    p = draw(st.sampled_from((None, 101, 10007)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    stream = SeedStream(draw(st.integers(0, 2**32)))

    def form(degree):
        g = random_poly(field, stream, 5, degree, 10)
        if p is None and draw(st.booleans()):
            g = g + random_poly(field, stream, 5, degree, 3).scale(Fraction(1, 3))
        return g

    f = form(3)
    kind = draw(st.sampled_from(("random", "perturbed", "product", "cone")))
    q = form(1) * form(1) if kind == "product" else form(2)
    if kind == "cone":
        f = Polynomial(field, 5, "x", {m: c for m, c in f.terms.items() if m[0] < 2})
        q = Polynomial(field, 5, "x", {m: c for m, c in q.terms.items() if m[0] == 0})
    if kind == "perturbed":
        for i in range(5):
            q = q + f.partial(i).scale(random_scalar(field, stream, 10))
    assume(not f.is_zero() and not q.is_zero())
    return f, q, draw(st.integers(5, 8)), draw(st.booleans())


@settings(max_examples=20, deadline=None)
@given(cubic_quadric_pairs())
def test_ci_smooth_matches_fraction_minor_route(case):
    # the minors from the primitive integer partials give the same
    # certificate, field by field, as the Fraction products they replace
    f, q, kmax, falsify = case
    assert ci_smooth(f, q, kmax, falsify) == ci_smooth_by_fraction_minors(f, q, kmax, falsify)


@st.composite
def scan_cases(draw):
    """(polys, nvars, p, cells): one to four homogeneous forms of degrees
    0-3 in 2-4 variables, scanned over F_p, p <= 31, with at most 1500
    points: over Q (fractional coefficients half the time), over F_p, or
    over another prime field F_q, whose forms are read at balanced lifts
    (q up to 2^61 - 1); each form dense, a product of linear forms (many
    common zeros) or zero; and a block size in cells, down to one point a
    block."""
    nvars, p = draw(st.sampled_from([
        (n, p) for n in (2, 3, 4) for p in (2, 3, 5, 7, 11, 13, 31) if (p**n - 1) // (p - 1) <= 1500
    ]))
    kind = draw(st.sampled_from(("rational", "own", "other")))
    q = draw(st.sampled_from([q for q in (5, 7, 13, 10007, (1 << 61) - 1) if q != p]))
    field = {"rational": QQ, "own": FieldConfig.prime_field(p), "other": FieldConfig.prime_field(q)}[kind]
    stream = SeedStream(draw(st.integers(0, 2**32)))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        shape, d = draw(st.sampled_from(("dense", "lines", "zero"))), draw(st.integers(0, 3))
        g = random_poly(field, stream, nvars, d, 3)
        if shape == "lines":
            g = Polynomial.constant(field, nvars, 1)
            for _ in range(max(d, 1)):
                g = g * random_linear_form(field, stream, nvars, 2)
        if shape == "zero":
            g = Polynomial.zero(field, nvars)
        if kind == "rational" and draw(st.booleans()):
            g = g.scale(Fraction(1, 3))
        polys.append(g)
    return polys, nvars, p, draw(st.sampled_from((1, 50, SCAN_CELLS)))


@settings(max_examples=100, deadline=None)
@given(scan_cases())
def test_block_scan_matches_point_loop(case):
    # the block products mark the same zeros, in the same order, as a loop
    # that evaluates each form at each point term by term
    polys, nvars, p, cells = case
    with mock.patch.object(jacobian, "SCAN_CELLS", cells):
        scan = _common_zeros_mod(_by_degree(polys), nvars, p, polys[0].field.modulus)
        assert list(scan) == list(naive_common_zeros(polys, nvars, p))


def test_macaulay_rows_are_bounded_before_the_first_row(fermat, monkeypatch):
    # the perp at k = 40 needs 111930 x 135751 cells a partial: refused
    # before product_index builds its table; the largest block that tier-1
    # tests and golden cases build, a quadric's to degree 9, stays inside
    built = []
    table = jacobian.product_index
    monkeypatch.setattr(jacobian, "product_index", lambda *a: built.append(a) or table(*a))
    with pytest.raises(BudgetExhaustedError, match="above the work budget"):
        jacobian_graded(fermat, 40)
    assert built == []
    assert graded_dim(5, 7) * graded_dim(5, 9) < MACAULAY_CELLS
    assert len(_integer_rows([random_poly(QQ, SeedStream(1), 5, 2, 3)], 9, sparse=True)) == 330


def test_macaulay_budget_counts_every_generator(monkeypatch):
    # J_11 of the Fermat quartic in 5 variables: each partial's block of
    # 495 x 1365 cells is inside the budget, the whole matrix is not; the
    # largest whole matrix tier-1 builds, (F, Q, minors) at degree 9 in 5
    # variables, 2640 x 715, is inside
    f = fermat_form(QQ, 5, 4)
    built = []
    table = jacobian.product_index
    monkeypatch.setattr(jacobian, "product_index", lambda *a: built.append(a) or table(*a))
    with pytest.raises(BudgetExhaustedError, match="have 3378375 cells"):
        _integer_rows(jacobian.partials(f), 11)
    assert built == []
    assert graded_dim(5, 8) * graded_dim(5, 11) < MACAULAY_CELLS < 3378375
    assert 2640 * graded_dim(5, 9) < MACAULAY_CELLS


# ---------------------------------------------------------------------------
# Milnor dimensions from the sweep, against the rref route (tests/oracles.py)


def _sheared(f, src, s):
    """F with x_i -> x_i + s_i * x_src for every i != src."""
    field, n = f.field, f.nvars
    x = [Polynomial.variable(field, n, i) for i in range(n)]
    image = [xi if i == src else xi + x[src].scale(field.coerce(s[i])) for i, xi in enumerate(x)]
    out = Polynomial.zero(field, n)
    for m, c in f.terms.items():
        term = Polynomial.constant(field, n, c)
        for xi, e in zip(image, m):
            term = term * xi.pow(e)
        out = out + term
    return out


@st.composite
def milnor_forms(draw):
    """F of degree 2 in 3-5 variables, 3 in 3-4 or 4 in 3, over Q, F_10007 or
    F_p with p <= d: a dense draw; a survey-style nodal draw (no monomial of
    x0-degree >= d-1, so e0 is singular, then sheared off e0); the special
    cubic; a form without x_{n-1} (a zero partial), or that form sheared
    along x_{n-1} (a cone with no zero partial).  Over Q, sometimes plus
    DEFAULT_PRIME times a dense draw: then F is smooth for most draws, but
    the sweep modulo DEFAULT_PRIME still sees the singular form."""
    nvars, d = draw(st.sampled_from(((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4))))
    p = draw(st.sampled_from((None, 10007, *(q for q in (2, 3) if q <= d))))
    field = QQ if p is None else FieldConfig.prime_field(p)
    kinds = ["dense", "nodal", "zero_partial", "cone"] + ["special"] * (d == 3)
    kind = draw(st.sampled_from(kinds))
    stream = SeedStream(draw(st.integers(0, 2**32)))
    s = [draw(st.sampled_from((-1, 1))) for _ in range(nvars)]

    def form(keep):
        return Polynomial(field, nvars, "x", {
            m: random_scalar(field, stream, 5) for m in monomials(nvars, d) if keep(m)
        })

    if kind == "special":
        f = special_q(field, nvars - 1, 3)
    elif kind == "dense":
        f = form(lambda m: True)
    elif kind == "nodal":
        f = _sheared(form(lambda m: m[0] < d - 1), 0, s)
    else:
        f = form(lambda m: m[-1] == 0)
        if kind == "cone":
            f = _sheared(f, nvars - 1, s)
    if p is None and draw(st.booleans()):
        f = f + form(lambda m: True).scale(DEFAULT_PRIME)
    assume(not f.is_zero())
    return f


def _assert_milnor_dims_match_rref(f):
    t = f.nvars * (f.degree() - 2)
    expected = [milnor_dims_by_rref(f, k) for k in range(t + 3)]
    assert list(milnor_profile(f).dims) == expected[: t + 1]
    assert [milnor_dim(f, k) for k in range(t + 3)] == expected


@settings(max_examples=40, deadline=None)
@given(milnor_forms())
def test_milnor_dims_match_rref_route(f):
    _assert_milnor_dims_match_rref(f)


def test_milnor_dims_match_rref_route_on_larger_forms(special_cubic):
    # E3 has dim_5 = 5 against the reference 1.  F = p*x0^3 + x0*x4^2 +
    # x1^3 + x2^3 + x3^3 + x4^3, p = DEFAULT_PRIME, is smooth, but modulo p
    # it is singular at e0, so the sweep's bound is not exact from degree 3 on
    lifted = parse_poly(f"{DEFAULT_PRIME}*x0^3 + x0*x4^2 + x1^3 + x2^3 + x3^3 + x4^3", QQ)
    sweep = _milnor_sweep(lifted.normalized())
    assert (sweep.hs, sweep.node) == ((1, 5, 10, 11, 9, 8, 8), None)
    cert = is_smooth_hypersurface(lifted)
    assert cert.is_smooth and cert.field_used == "rational"
    quartic = random_poly(FieldConfig.prime_field(10007), SeedStream(5), 4, 4, 5)
    for f in (special_cubic, lifted, quartic):
        _assert_milnor_dims_match_rref(f)


def _clear_milnor_caches():
    for cached in (_milnor_sweep, jacobian_graded):
        cached.cache_clear()


def test_milnor_profile_reads_the_sweep(monkeypatch, smooth_cubics, nodal_cubic, special_cubic):
    # a smooth survey draw: is_smooth_hypersurface and milnor_profile run
    # one sweep and no rational rref
    rational_rrefs = []

    def spy(m):
        if m.field.is_rational:
            rational_rrefs.append((m.nrows, m.ncols))
        return rref(m)

    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", spy)
    monkeypatch.setattr(jacobian, "rref", spy)
    _clear_milnor_caches()
    f = smooth_cubics[1]
    assert is_smooth_hypersurface(f).is_smooth
    assert list(milnor_profile(f).dims) == smooth_reference_dims(5, 3)
    assert rational_rrefs == []
    assert jacobian_graded.cache_info().misses == 0
    assert _milnor_sweep.cache_info().misses == 1
    # over F_10007 the certificate of c*F, the profile and lambda of F read
    # one sweep of F's class and build no J_k
    _clear_milnor_caches()
    _socle_functional.cache_clear()
    g = parse_poly(str(f), FieldConfig.prime_field(10007), nvars=5)
    assert is_smooth_hypersurface(g.scale(3)).is_smooth
    assert list(milnor_profile(g).dims) == smooth_reference_dims(5, 3)
    lam = socle_functional(g)
    assert jacobian_graded.cache_info().misses == 0
    assert _milnor_sweep.cache_info().misses == 1
    assert lam.vector == socle_by_kernel(g)
    # a survey-style nodal draw: its node shows from degree T+1 = 6 on only
    _clear_milnor_caches()
    assert milnor_profile(nodal_cubic).dims == (1, 5, 10, 10, 5, 1)
    assert rational_rrefs == []
    assert [milnor_dims_by_rref(nodal_cubic, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    # E3: h_5 and h_6 mod p differ from the smooth reference, and the
    # sweep's lifted normal forms make both exact; J_k is built only past T+1
    _clear_milnor_caches()
    rational_rrefs.clear()
    built = []
    graded = jacobian.jacobian_graded

    def record(g, k):
        built.append(k)
        return graded(g, k)

    monkeypatch.setattr(jacobian, "jacobian_graded", record)
    sweep = _milnor_sweep(special_cubic.normalized())
    smooth = smooth_reference_dims(5, 3) + [0]
    assert [k for k in range(7) if sweep.hs[k] != smooth[k]] == [5, 6]
    assert sweep.ref == sweep.hs == (1, 5, 10, 10, 5, 5, 5)
    assert milnor_profile(special_cubic).dims == (1, 5, 10, 10, 5, 5)
    assert [milnor_dim(special_cubic, k) for k in (6, 7)] == [5, 5]
    assert built == [7]
    assert rational_rrefs == [(630, 330)]


# ---------------------------------------------------------------------------
# singular points off the sweep's normal forms, against the rref route


@st.composite
def one_node_forms(draw):
    """A cubic in 3-5 variables over Q built like a singular survey draw:
    no monomial of x0-degree >= 2 (a node at e0), coefficients in
    [-10, 10], then sheared off e0 and off e1, by +-1 (the survey's shears)
    or by integers up to 200 (a node past the reconstruction bound mod
    DEFAULT_PRIME, about 70).  One draw in four adds DEFAULT_PRIME * x0^3
    first: smooth over Q for most draws, while the sweep mod DEFAULT_PRIME
    still sees the node."""
    nvars = draw(st.sampled_from((3, 4, 5)))
    stream = SeedStream(draw(st.integers(0, 2**32)))
    f = Polynomial(QQ, nvars, "x", {
        m: random_scalar(QQ, stream, 10) for m in monomials(nvars, 3) if m[0] < 2
    })
    # the seed draws the kind, so that every kind keeps its share
    if stream.randint(0, 3) == 0:
        f = f + Polynomial(QQ, nvars, "x", {(3,) + (0,) * (nvars - 1): QQ.coerce(DEFAULT_PRIME)})
    big = stream.randint(0, 1)
    for src in (0, 1):
        f = _sheared(f, src, [
            stream.randint(-200, 200) if big else 2 * stream.randint(0, 1) - 1 for _ in range(nvars)
        ])
    assume(not f.is_zero())
    return f


def _vanishes_mod(g, point, p) -> bool:
    """g scaled to primitive integers is 0 mod p at the integer point."""
    return sum(
        c * math.prod(x**e for x, e in zip(point, m)) for m, c in _primitive(g.terms).items()
    ) % p == 0


@settings(max_examples=15, deadline=None)
@given(one_node_forms())
def test_one_node_certificate_matches_rref_route(f):
    cert, want = is_smooth_hypersurface(f), smoothness_by_rref(f)
    fields = ("verdict", "degree", "field_used", "promoted", "note")
    assert [getattr(cert, k) for k in fields] == [getattr(want, k) for k in fields]
    if cert.witness_point is not None:
        assert all(_vanishes_mod(g, cert.witness_point, 7) for g in [f, *jacobian.partials(f)])


def test_nodal_certificate_reads_the_node_off_the_sweep(monkeypatch, nodal_cubic):
    # caches cleared, a survey-style nodal cubic makes no rational rref and
    # no F_7 scan: its node comes off the degree-6 normal forms, and the
    # witness is that node mod 7; a node past the reconstruction bound, and
    # a form smooth over Q whose sweep mod DEFAULT_PRIME sees the node at
    # e0 (h_6 = 1), take the exact route
    calls = []
    rref, scan = jacobian.rref, jacobian._common_zeros_mod
    monkeypatch.setattr(jacobian, "rref", lambda m: calls.append("rref") or rref(m))
    monkeypatch.setattr(jacobian, "_common_zeros_mod", lambda *a: calls.append("scan") or scan(*a))
    note = "Jacobian rank 209 < 210 at degree 6; singular point found over F_7"
    _clear_milnor_caches()
    near = _sheared(nodal_cubic, 0, (0, 1, -1, 1, 1))  # node at (1, -1, 1, -1, -1)
    assert is_smooth_hypersurface(near) == SmoothnessCertificate(
        "singular", 6, "rational", False, (1, 6, 1, 6, 6), note
    )
    assert calls == []
    far = _sheared(nodal_cubic, 0, (0, 100, 0, 0, 0))  # node at (1, -100, 0, 0, 0)
    cert = is_smooth_hypersurface(far)
    assert (cert.verdict, cert.note) == ("singular", note)
    assert calls == ["rref", "scan"]
    lifted = nodal_cubic + parse_poly(f"{DEFAULT_PRIME}*x0^3", QQ, nvars=5)
    assert _milnor_sweep(lifted.normalized()).hs[6] == 1
    assert is_smooth_hypersurface(lifted) == SmoothnessCertificate("smooth", 6, "rational", False)
    assert calls == ["rref", "scan", "rref"]


def test_milnor_dim_at_a_node_read_off_the_sweep(monkeypatch, nodal_cubic):
    # dim (S/J_F)_(T+1) of a one-node form is 1 exactly once the sweep has
    # read the node: no rational rref, cold or after the certificate; a
    # node past reconstruction takes the rref route
    calls = []
    rref = linalg.rref
    for mod in (linalg, jacobian):
        monkeypatch.setattr(mod, "rref", lambda m: calls.append(m.nrows) or rref(m))
    near = _sheared(nodal_cubic, 0, (0, 1, -1, 1, 1))
    for f in (nodal_cubic, near):
        _clear_milnor_caches()
        assert milnor_dim(f, 6) == 1
        assert is_smooth_hypersurface(f).verdict == "singular" and milnor_dim(f, 6) == 1
    assert calls == []
    assert [milnor_dims_by_rref(f, 6) for f in (nodal_cubic, near)] == [1, 1]
    calls.clear()
    far = _sheared(nodal_cubic, 0, (0, 100, 0, 0, 0))
    assert milnor_dim(far, 6) == 1 and calls == [350]


# ---------------------------------------------------------------------------
# exact ranks read off the sweep's normal forms, against the rref route


@st.composite
def singular_forms(draw):
    """A singular form over Q whose sweep mod DEFAULT_PRIME exceeds the
    smooth reference at some degree <= T+1, coefficients in [-1, 1] or
    [-5, 5]: a linear form times a form of degree d-1; a cone (a form
    without x_{n-1}, sheared along it by +-1); a form with no monomial of
    exponent >= d-1, so every coordinate point is singular (E3-like); that
    form sheared off e0 and e1 by +-1 (several nodes at small coordinates),
    or by integers up to 200 (a node at large coordinates, past
    reconstruction mod DEFAULT_PRIME: the rref route).  The first two kinds
    verify at some degrees and not at others, the more often the smaller
    their coefficients.  One draw in four adds DEFAULT_PRIME times a dense
    form: the sweep sees the singular form, whose normal forms lift, while
    over Q F is most often smooth, so the exact check must reject them.
    Cubics in 3-5 variables or a quartic in 3; a five-variable cubic, whose
    degrees that do not verify take a 350 x 210 rref on both sides, is one
    draw in twelve."""
    five = draw(st.integers(0, 11)) == 11
    nvars, d = (5, 3) if five else draw(st.sampled_from(((3, 3), (4, 3), (3, 4))))
    kind = draw(st.sampled_from(("line_times_form", "cone", "e3_like", "small_nodes", "large_nodes")))
    bound = draw(st.sampled_from((1, 5)))
    stream = SeedStream(draw(st.integers(0, 2**32)))

    def form(e, keep=lambda m: True):
        return Polynomial(QQ, nvars, "x", {
            m: random_scalar(QQ, stream, bound) for m in monomials(nvars, e) if keep(m)
        })

    def signs():
        return [2 * stream.randint(0, 1) - 1 for _ in range(nvars)]

    if kind == "line_times_form":
        f = form(1) * form(d - 1)
    elif kind == "cone":
        f = _sheared(form(d, lambda m: m[-1] == 0), nvars - 1, signs())
    else:
        f = form(d, lambda m: max(m) < d - 1)
        for src in (0, 1) if kind != "e3_like" else ():
            f = _sheared(f, src, [stream.randint(-200, 200) for _ in range(nvars)]
                         if kind == "large_nodes" else signs())
    if draw(st.integers(0, 3)) == 0:
        f = f + form(d).scale(DEFAULT_PRIME)
    assume(not f.is_zero())
    return f


@settings(max_examples=15, deadline=None)
@given(singular_forms())
def test_read_off_ranks_match_rref_route(f):
    # milnor_dim at every degree up to T+1, and the certificate's rank, are
    # the rational rref's, whether the sweep's normal forms verified or not
    t1 = f.nvars * (f.degree() - 2) + 1
    expected = [milnor_dims_by_rref(f, k) for k in range(t1 + 1)]
    assert [milnor_dim(f, k) for k in range(t1 + 1)] == expected
    cert, target = is_smooth_hypersurface(f), graded_dim(f.nvars, t1)
    if expected[t1]:
        assert (cert.verdict, cert.degree, cert.field_used) == ("singular", t1, "rational")
        assert cert.note.startswith(f"Jacobian rank {target - expected[t1]} < {target} at degree {t1}")
    else:
        assert cert.is_smooth


def test_golden_singular_forms_read_their_ranks_off_the_sweep(monkeypatch, capsys):
    # the golden commands whose certificate is singular, C of (Fermat, Q)
    # and E3, cold: no rational null space of J_6 (210 columns) and no J_5
    from gradus.cli import main as cli_main

    null_spaces, built = [], []
    null_space, graded = linalg._null_space, jacobian.jacobian_graded
    monkeypatch.setattr(linalg, "_null_space", lambda rows, n: null_spaces.append(n) or null_space(rows, n))
    monkeypatch.setattr(jacobian, "jacobian_graded", lambda g, k: built.append(k) or graded(g, k))
    fermat, q = "x0^3+x1^3+x2^3+x3^3+x4^3", "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3"
    for argv in (("extract-c", "-f", fermat, "-q", q), ("verify-corollary", "-f", fermat, "-q", q),
                 ("deformation", "--steps", "2", "--trials", "2", "--seed", "1"), ("reproduce-example",)):
        _clear_milnor_caches()
        assert cli_main([*argv, "--output", "json"]) == 0
        capsys.readouterr()
        assert graded_dim(5, 6) not in null_spaces and 5 not in built, argv[0]
    sweep = _milnor_sweep(special_q(QQ, 4, 3).normalized())
    assert sweep.ref == sweep.hs == (1, 5, 10, 10, 5, 5, 5)
    c = _milnor_sweep(parse_poly("y0*y1*y4 - y0*y2*y4 + y2*y3*y4", QQ).normalized())
    assert c.ref == c.hs == (1, 5, 10, 17, 26, 37, 50)


def test_read_off_check_leaves_int64_when_its_sums_would_not_fit(monkeypatch):
    # an E3-like cubic with coefficients 10^18 + i: its degree-5 and -6
    # normal forms lift to the five coordinate evaluations, entries 0 and 1,
    # but a sum of the check, 15 products up to 10^18 + 9, passes 2^63, so
    # the product runs on Python ints; the read-off still verifies
    dtypes, product = [], jacobian._integer_matmul
    monkeypatch.setattr(jacobian, "_integer_matmul", lambda a, b: dtypes.append(product(a, b).dtype) or product(a, b))
    squarefree = (m for m in monomials(5, 3) if max(m) == 1)
    f = Polynomial(QQ, 5, "x", {m: QQ.coerce(10**18 + i) for i, m in enumerate(squarefree)})
    _clear_milnor_caches()
    sweep = _milnor_sweep(f.normalized())
    assert sweep.ref == sweep.hs == (1, 5, 10, 10, 5, 5, 5)
    assert dtypes == [np.dtype(object)] * 2
    assert (10**18 + 9) * 15 >= 1 << 63
    assert [milnor_dim(f, k) for k in (5, 6)] == [milnor_dims_by_rref(f, k) for k in (5, 6)] == [5, 5]
    # E3 itself checks in int64
    dtypes.clear()
    _milnor_sweep(special_q(QQ, 4, 3).normalized())
    assert dtypes == [np.dtype(np.int64)] * 2


def _rows_form_by_form(gens) -> dict:
    """`_by_degree(gens)` as lists, each rational form made primitive on its
    own by `linalg._primitive`, the rule's one scalar statement."""
    rows: dict = {}
    for g in (g for g in gens if not g.is_zero()):
        e = g.homogeneous_degree()
        idx, row = monomial_index(g.nvars, e), [0] * graded_dim(g.nvars, e)
        for m, v in (_primitive(g.terms) if g.field.is_rational else g.terms).items():
            row[idx[m]] = v
        rows.setdefault(e, []).append(row)
    return rows


@pytest.mark.parametrize("p", [None, 3, 13, DEFAULT_PRIME])
def test_partials_table_reads_the_gradient(p):
    # the partials' rows read off F's gradient are those of the partials
    # built as Polynomials: primitive and signed over Q, residues over F_p,
    # zero rows dropped; also with p <= d, where p*m_i kills a partial's
    # term, with a variable missing, and with coefficients that p divides.
    # Both tables, and F's own, are those of `_primitive` form by form
    field = QQ if p is None else FieldConfig.prime_field(p)
    stream = SeedStream(17)
    forms = [
        parse_poly(f"x1^3+x2^3+x3^3+x4^3+{DEFAULT_PRIME}*x0^3+{DEFAULT_PRIME}*x0^2*x1", field),
        parse_poly("x0^3 + x1^3 + 3*x2^3 - 13*x0*x1*x2", field),
        parse_poly("-2/7*x0*x1 + 5*x2^2", field, nvars=4),
        parse_poly("-x2", field, nvars=3),
    ]
    for nvars, d in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 3)):
        f = random_poly(field, stream, nvars, d, 40)
        scaled = {m: c * (3, 13, DEFAULT_PRIME, 1)[i % 4] for i, (m, c) in enumerate(f.terms.items())}
        forms += [f, Polynomial(field, nvars, "x", scaled),
                  Polynomial(field, nvars, "x", {m: c for m, c in f.terms.items() if not m[-1]})]
    for f in (g for g in forms if not g.is_zero()):
        expected = _rows_form_by_form(partials(f))
        for table in (_partials_table(f), _by_degree(partials(f))):
            assert {e: rows.tolist() for e, rows in table.items()} == expected, f
            assert all(rows.dtype == object for rows in table.values()), f
        assert {e: rows.tolist() for e, rows in _by_degree([f]).items()} == _rows_form_by_form([f]), f


def test_a_smooth_sweep_builds_no_partial(monkeypatch, smooth_cubics):
    # a smooth survey draw reads its partials' rows off F's gradient
    built = []
    partial = Polynomial.partial
    monkeypatch.setattr(Polynomial, "partial", lambda g, i: built.append(i) or partial(g, i))
    _clear_milnor_caches()
    for field in (QQ, FieldConfig.prime_field(DEFAULT_PRIME)):
        f = parse_poly(str(smooth_cubics[2]), field, nvars=5)
        assert is_smooth_hypersurface(f).is_smooth
        assert list(milnor_profile(f).dims) == smooth_reference_dims(5, 3)
    assert built == []


def _skeleton_spy(monkeypatch) -> list:
    """The degrees of the sweep skeletons built from now on: `_skeleton`
    memoized afresh, as the library memoizes it, over its builder with each
    build logged, so the builds past the memo are logged too."""
    built, build = [], jacobian._skeleton.__wrapped__
    spy = functools.lru_cache(maxsize=linalg.CACHE_SIZE)(lambda nvars, k, std: built.append(k) or build(nvars, k, std))
    monkeypatch.setattr(jacobian, "_skeleton", spy)
    return built


def test_dense_cubics_share_every_sweep_skeleton(monkeypatch):
    # two dense cubics have one staircase at every degree, over Q and over
    # F_p: the second sweep builds no skeleton at any degree >= 1
    built = _skeleton_spy(monkeypatch)
    stream = SeedStream(29)
    for field in (QQ, FieldConfig.prime_field(DEFAULT_PRIME)):
        hs = []
        for _ in range(2):
            built.clear()
            f = random_poly(field, stream, 5, 3, 10)
            hs.append([h for _, h in itertools.islice(_quotient_dims_mod(_partials_table(f), 5, DEFAULT_PRIME), 7)])
        assert hs == [[1, 5, 10, 10, 5, 1, 0]] * 2 and built == []


def test_sweep_skeletons_above_the_bound_are_not_memoized(monkeypatch):
    # a kmax-14 (F, Q, minors) sweep that never fills up: a second run
    # rebuilds exactly the degrees with dim S_k above SKELETON_MEMO_DIM
    built = _skeleton_spy(monkeypatch)
    f = parse_poly("x0*x1^2+x1^3+x2^3+x3^3+x4^3", QQ)
    gens = _ci_system(f, parse_poly("x0*x1+x2*x3+x4^2", QQ))
    assert not projective_empty(gens, 14).certified and built == list(range(1, 15))
    built.clear()
    assert not projective_empty(gens, 14).certified
    assert built == [k for k in range(1, 15) if graded_dim(5, k) > SKELETON_MEMO_DIM] == [11, 12, 13, 14]
    assert jacobian._skeleton.cache_info().currsize == 10


def test_sweep_degrees_are_bounded_before_the_first(monkeypatch):
    # T+2 = nvars*(d-2) + 2 degrees above WORK_BUDGET: refused before the
    # sweep and before the smooth reference walks T
    monkeypatch.setattr(jacobian, "WORK_BUDGET", 10)
    assert len(smooth_reference_dims(2, 6)) == 9
    with pytest.raises(BudgetExhaustedError, match="sweeps 12 degrees"):
        smooth_reference_dims(2, 7)
    sweeps = []
    monkeypatch.setattr(jacobian, "_quotient_dims_mod", lambda *a: sweeps.append(a))
    _clear_milnor_caches()
    with pytest.raises(BudgetExhaustedError, match="above the work budget of 10"):
        is_smooth_hypersurface(parse_poly("x0^7 + x1^7", QQ))
    assert sweeps == []
