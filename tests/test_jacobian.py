from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import (
    FieldConfig,
    Polynomial,
    SeedStream,
    SmoothnessCertificate,
    ci_smooth,
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
    smooth_reference_dims,
    span,
)
from gradus.errors import PreconditionError, ZeroPolynomialError
from gradus.jacobian import _integer_rows, _residue_rows, _shifted_rows
from gradus.linalg import _primitive

from .oracles import product_rows

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
    res = projective_empty(parts, 8, check_monotone=True)
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
    # explicitly allowed when the generality flag is set
    cert = ci_smooth(cubic3, quad3, allow_general=True)
    assert cert.verdict in ("smooth", "singular", "inconclusive")


def test_monotone_fullness_during_sweep(fermat):
    parts = [fermat.partial(i) for i in range(5)]
    res = projective_empty(parts, 8, check_monotone=True)
    assert res.certified


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
    g, k = case
    assert _shifted_rows(g, k) == product_rows([g], k)
    if g.field.is_rational and not g.is_zero():
        ints = _primitive(g.terms)
        g_int = Polynomial(QQ, g.nvars, "x", {m: Fraction(v) for m, v in ints.items()})
        assert _shifted_rows(g, k, ints) == product_rows([g_int], k)
        assert _integer_rows([g, g.scale(0)], k) == product_rows([g_int], k)
    elif not g.field.is_rational:
        assert _integer_rows([g], k) == product_rows([g], k)


def residues_oracle(gens, k, p):
    return [[x % p for x in row] for row in _integer_rows(gens, k)]


@settings(max_examples=150, deadline=None)
@given(generators(), st.sampled_from((5, 10007, 46337, 46349, 2147483629)))
def test_residue_rows_are_integer_rows_mod_p(case, p):
    # over F_q the rows are reduced mod q itself, as the sweeps do
    g, k = case
    if not g.field.is_rational:
        p = g.field.modulus
    for gens in ([g], [g.scale(0), g]):
        assert _residue_rows(gens, k, p).tolist() == residues_oracle(gens, k, p)


def test_residue_rows_of_a_pair_sweep(u_pairs):
    # Q from construct_pair: its primitive integer scaling has ~140-bit entries
    f, _, cert = u_pairs[0]
    q = cert.q
    assert max(abs(v) for v in _primitive(q.terms).values()).bit_length() > 120
    minors = [
        f.partial(i) * q.partial(j) - f.partial(j) * q.partial(i)
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    gens = [f, q, *minors]
    for k in (1, 3, 7):
        assert _residue_rows(gens, k, 10007).tolist() == residues_oracle(gens, k, 10007)
