from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradus import (
    FieldConfig,
    Polynomial,
    SeedStream,
    fermat_form,
    graded_dim,
    monomials,
    parse_poly,
    polar_pair,
    random_poly,
    special_q,
)
from gradus.errors import (
    AmbientMismatchError,
    CharacteristicError,
    ParseError,
    PreconditionError,
)

from gradus.poly import _parse_terms

from .oracles import pairing_by_differentiation, parse_terms_by_tokens

QQ = FieldConfig.rationals()


def test_parse_fermat_type():
    p = parse_poly("x0^3 + x1^3", QQ, nvars=5)
    assert p.homogeneous_degree() == 3
    assert p.terms == {(3, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0): 1}


def test_parse_two_terms_with_coefficients():
    p = parse_poly("x0*x1*x2 - 2*x3^2*x4", QQ)
    assert p.terms[(1, 1, 1, 0, 0)] == 1
    assert p.terms[(0, 0, 0, 2, 1)] == -2


def test_parse_inhomogeneity_error():
    with pytest.raises(PreconditionError, match="inhomogeneous"):
        parse_poly("x0^2 + x1^3", QQ, expected_degree=3)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + @", QQ)
    assert "position" in str(err.value)


def test_parse_rational_coefficients_and_leading_sign():
    p = parse_poly("-1/2*x0^2 + 3/4*x1*x2", QQ)
    assert p.terms[(2, 0, 0)] == Fraction(-1, 2)
    assert p.terms[(0, 1, 1)] == Fraction(3, 4)


def test_parse_mixed_family_rejected():
    with pytest.raises(ParseError, match="famil"):
        parse_poly("x0*y1", QQ)


def test_parse_wrong_family_rejected():
    with pytest.raises(PreconditionError, match="family"):
        parse_poly("x0^3", QQ, family="y")


def test_parse_coefficient_must_lead():
    with pytest.raises(ParseError):
        parse_poly("x0*2", QQ)


# tokens, whitespace and characters outside the grammar
_PIECES = ("0", "3", "12", "007", "x", "y", "x0", "x1", "y2", "x10", "^", "*", "/", "+", "-",
           " ", "\t", "$", "z", ".", "\u0663", "\u00a0")


@st.composite
def polynomial_texts(draw):
    """Terms of the grammar, signed and spaced at random (coefficients and
    exponents may be 0, coefficients p/q), then up to three of _PIECES
    spliced in at random places."""
    def power():
        return (draw(st.sampled_from("xy")) + str(draw(st.integers(0, 12)))
                + draw(st.sampled_from(["", "^0", "^1", "^3", "^12"])))

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        factors = [power() for _ in range(draw(st.integers(0, 3)))]
        if not factors or draw(st.booleans()):
            factors.insert(0, str(draw(st.integers(0, 99))) + draw(st.sampled_from(["", "/0", "/1", "/6"])))
        terms.append(draw(st.sampled_from(["+", "-", " + ", " - "])) + draw(st.sampled_from(["*", " * "])).join(factors))
    text = "".join(terms)
    text = text.lstrip(" +") if draw(st.booleans()) else text
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_PIECES)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(polynomial_texts())
def test_one_pass_parser_matches_token_parser(text):
    # the same terms, or the same ParseError message at the same position,
    # as the token-list parser the library had before; coefficients stay
    # ints where the text has no fraction
    def terms(parse):
        try:
            return [(Fraction(c), powers) for c, powers in parse(text)]
        except ParseError as err:
            return str(err), err.position

    assert terms(_parse_terms) == terms(parse_terms_by_tokens)
    if "/" not in text and isinstance(terms(_parse_terms), list):
        assert all(type(c) is int for c, _ in _parse_terms(text))


def test_print_parse_roundtrip():
    stream = SeedStream(8)
    for _ in range(20):
        p = random_poly(QQ, stream, 4, 3, 9)
        text = str(p)
        again = parse_poly(text, QQ, nvars=4)
        assert again == p
    # constants round-trip too
    c = Polynomial.constant(QQ, 3, Fraction(-7, 2))
    assert parse_poly(str(c), QQ, nvars=3) == c


def test_canonical_print_order_and_signs():
    p = parse_poly("x1^3 - x0^3 + 2*x0*x1^2", QQ, nvars=2)
    assert str(p) == "-x0^3 + 2*x0*x1^2 + x1^3"


def test_partial_derivatives():
    p = parse_poly("x0^3", QQ, nvars=5)
    assert p.partial(0) == parse_poly("3*x0^2", QQ, nvars=5)
    assert p.partial(1).is_zero()
    with pytest.raises(PreconditionError):
        p.partial(9)


def test_partial_of_special_form_by_hand():
    q = special_q(QQ, 4, 3)
    expected = parse_poly(
        "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4", QQ, nvars=5
    )
    assert q.partial(0) == expected


def test_leibniz_rule_random():
    stream = SeedStream(21)
    for _ in range(10):
        p = random_poly(QQ, stream, 3, 2, 6)
        r = random_poly(QQ, stream, 3, 3, 6)
        for i in range(3):
            lhs = (p * r).partial(i)
            rhs = p.partial(i) * r + p * r.partial(i)
            assert lhs == rhs


def test_polar_pair_monomials():
    f = parse_poly("x0^3", QQ, nvars=5)
    g = parse_poly("y0^3", QQ, nvars=5)
    assert polar_pair(f, g) == 6
    f2 = parse_poly("x0^2*x1", QQ, nvars=5)
    g2 = parse_poly("y0*y1^2", QQ, nvars=5)
    assert polar_pair(f2, g2) == 0


def test_polar_pair_degree_and_family_checks():
    f = parse_poly("x0^2", QQ, nvars=2)
    g = parse_poly("y0^3", QQ, nvars=2)
    with pytest.raises(PreconditionError):
        polar_pair(f, g)
    with pytest.raises(PreconditionError):
        polar_pair(f, f)


def test_polar_pair_small_characteristic_rejected():
    f3 = FieldConfig.prime_field(3)
    f = parse_poly("x0^3", f3, nvars=2)
    g = parse_poly("y0^3", f3, nvars=2)
    with pytest.raises(CharacteristicError):
        polar_pair(f, g)


def test_polar_pair_matches_differentiation_oracle():
    stream = SeedStream(13)
    for _ in range(50):
        k = stream.randint(1, 5)
        f = random_poly(QQ, stream, 3, k, 7)
        g = random_poly(QQ, stream, 3, k, 7, family="y")
        assert polar_pair(f, g) == pairing_by_differentiation(f, g)


def test_jacobian_generators_pair_to_zero_with_fermat(special_cubic):
    from gradus import jacobian_graded

    fy = fermat_form(QQ, 5, 3, family="y")
    j3 = jacobian_graded(special_cubic, 3)
    assert j3.dim == 25
    for row in j3.basis.rows:
        b = Polynomial.from_vector(QQ, 5, "x", 3, row)
        assert polar_pair(b, fy) == 0


def test_monomial_bases():
    assert len(monomials(5, 3)) == 35
    assert len(monomials(5, 5)) == 126
    assert monomials(5, 0) == ((0, 0, 0, 0, 0),)
    assert graded_dim(5, 3) == 35
    # descending lex: x0^3 first, x4^3 last
    assert monomials(5, 3)[0] == (3, 0, 0, 0, 0)
    assert monomials(5, 3)[-1] == (0, 0, 0, 0, 3)


def test_evaluate():
    q = special_q(QQ, 4, 3)
    assert q.evaluate((1, 0, 0, 0, 0)) == 0
    p = parse_poly("x0^2", QQ, nvars=3)
    assert p.evaluate((3, 1, 1)) == 9
    with pytest.raises(AmbientMismatchError):
        p.evaluate((1, 2))


def test_multiply():
    a = parse_poly("x0 + x1", QQ, nvars=2)
    b = parse_poly("x0 - x1", QQ, nvars=2)
    assert a * b == parse_poly("x0^2 - x1^2", QQ, nvars=2)


def test_normalized_leading_coefficient():
    p = parse_poly("2*x0^2 + 4*x1^2", QQ, nvars=2)
    n = p.normalized()
    assert n.terms[(2, 0)] == 1 and n.terms[(0, 2)] == 2


def test_hash_and_normalized_are_computed_once():
    p = parse_poly("2*x0^2 + 4*x1^2", QQ, nvars=2)
    q = parse_poly("4*x1^2 + 2*x0^2", QQ, nvars=2)
    assert hash(p) == hash(p.key()) == hash(q)
    assert p.normalized() is p.normalized() and p.normalized() == q.normalized()
    assert p.normalized().normalized() is p.normalized()
    zero = Polynomial.zero(QQ, 2)
    assert zero.normalized() is zero and hash(zero) == hash(zero.key())
    with pytest.raises(AttributeError, match="immutable"):
        p._hash = 0


def test_coeff_vector_roundtrip():
    stream = SeedStream(4)
    p = random_poly(QQ, stream, 4, 2, 5)
    vec = p.coeff_vector(2)
    assert Polynomial.from_vector(QQ, 4, "x", 2, vec) == p


def test_prime_field_polynomials_print_and_parse():
    f7 = FieldConfig.prime_field(7)
    p = parse_poly("x0^2 + 6*x1^2", f7)
    assert str(p) == "x0^2 + 6*x1^2"
    assert parse_poly(str(p), f7) == p
