from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradus import (
    FieldConfig,
    PointSet,
    SeedStream,
    brute_singular_search,
    check_lemma_defect,
    ci_smooth,
    defect,
    evaluation_matrix,
    graded_dim,
    is_node,
    is_smooth_hypersurface,
    milnor_dim,
    parse_points,
    parse_poly,
    random_scalar,
    rank,
    singular_points,
    special_q,
)
from gradus import defects, poly
from gradus.errors import (
    AmbientMismatchError,
    BudgetExhaustedError,
    GradusError,
    ParseError,
    PreconditionError,
    RangeError,
)
from gradus.jacobian import _by_degree, _common_zeros_mod, _milnor_sweep, projective_points
from gradus.linalg import DEFAULT_PRIME, WORK_BUDGET
from gradus.poly import Polynomial, monomials

from .oracles import evaluation_by_pow, is_node_by_chart, linear_substitution, naive_rank_rational

QQ = FieldConfig.rationals()


def coordinate_points(field, nvars):
    return PointSet.from_raw(
        field, nvars, [[1 if i == j else 0 for i in range(nvars)] for j in range(nvars)]
    )


def test_special_q_flagship(special_cubic):
    assert len(special_cubic.terms) == 10
    assert all(sorted(m, reverse=True) == [1, 1, 1, 0, 0] for m in special_cubic.terms)


def test_special_q_small_case():
    q = special_q(QQ, 2, 3)
    assert q == parse_poly("x0*x1*x2", QQ)


def test_special_q_rejects_higher_degree():
    with pytest.raises(PreconditionError, match="inhomogeneous"):
        special_q(QQ, 2, 4)
    with pytest.raises(PreconditionError):
        special_q(QQ, 4, 2)
    with pytest.raises(PreconditionError):
        special_q(QQ, 1, 3)


def test_singular_points_of_special_form(special_cubic):
    cands = coordinate_points(QQ, 5)
    assert len(singular_points(special_cubic, cands)) == 5


def test_singular_points_filters_non_singular(special_cubic):
    cands = PointSet.from_raw(QQ, 5, [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
    verified = singular_points(special_cubic, cands)
    assert verified.points == ((1, 0, 0, 0, 0),)
    # points over another field than F's are refused, either way round
    f7 = FieldConfig.prime_field(7)
    with pytest.raises(AmbientMismatchError, match="points over rational, F over fp:7"):
        singular_points(special_q(f7, 4, 3), cands)
    with pytest.raises(AmbientMismatchError, match="points over fp:7, F over rational"):
        check_lemma_defect(special_cubic, coordinate_points(f7, 5), 0)


def test_brute_search_special_form(special_cubic):
    found = brute_singular_search(special_cubic, 7)
    expected = {tuple(1 if i == j else 0 for i in range(5)) for j in range(5)}
    assert set(found.points) == expected


def test_brute_search_smooth_is_empty(fermat):
    assert len(brute_singular_search(fermat, 7)) == 0


def test_brute_search_reduces_the_rational_form_once():
    # 7*x0^3 + x1^3 + x2^3 reduces to x1^3 + x2^3 mod 7, singular at
    # (1, 0, 0); scaling each partial to primitive integers would lose it
    f = parse_poly("7*x0^3 + x1^3 + x2^3", QQ)
    assert brute_singular_search(f, 7).points == ((1, 0, 0),)
    # x0^3 + x1^3 + x2^3 has partials 3*x_i^2, all 0 mod 3: every one of
    # the 13 points of P^2(F_3), where the primitive x_i^2 would give none
    assert len(brute_singular_search(parse_poly("x0^3 + x1^3 + x2^3", QQ), 3)) == 13


def test_brute_search_over_its_own_prime_field():
    # (q, F over F_q, common zeros of the partials over F_q, scanned at p = q)
    cases = [
        (7, None, [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]),
        (3, "x0^3+x1^3+x2^3", [(1, b, c) for b in range(3) for c in range(3)]
         + [(0, 1, c) for c in range(3)] + [(0, 0, 1)]),
        (5, "x0^2*x2 - x1^3 + x1^2*x2", [(0, 0, 1)]),
        (11, "x0^2*x2 - x1^3 + x1^2*x2", [(0, 0, 1)]),
        (7, "x0^3+x1^3+x2^3+x3^3+x4^3", []),
        (13, "x0^3 - 3*x0*x1^2 + 5*x2^3 - x0*x1*x2", []),
        (2, "x0^2*x1 + x1^2*x2 + x0*x1*x2", [(1, 0, 1), (0, 0, 1)]),
    ]
    for q, text, expected in cases:
        field = FieldConfig.prime_field(q)
        f = special_q(field, 4, 3) if text is None else parse_poly(text, field)
        found = brute_singular_search(f, q)
        assert found.field == field and list(found.points) == expected, (q, text)


def test_is_node_at_coordinate_points(special_cubic):
    for j in range(5):
        pt = [1 if i == j else 0 for i in range(5)]
        assert is_node(special_cubic, pt)


def test_is_node_rejects_degenerate():
    p = parse_poly("x0^3", QQ, nvars=5)
    assert not is_node(p, [0, 0, 0, 0, 1])


def test_is_node_requires_singular_point(special_cubic, fermat):
    with pytest.raises(PreconditionError):
        is_node(special_cubic, [1, 1, 1, 1, 1])  # not even on the hypersurface
    with pytest.raises(PreconditionError):
        is_node(fermat, [1, -1, 0, 0, 0])  # on it, but smooth there


def _unit_lower_inverse_column(a, j) -> list:
    """Column j of the inverse of a unit lower triangular integer matrix."""
    x = []
    for i, row in enumerate(a):
        x.append(int(i == j) - sum(row[c] * x[c] for c in range(i)))
    return x


@st.composite
def node_cases(draw):
    """(G, point): a nonzero F of degree 2-4 in 3-5 variables (3-4 at degree
    4) over Q, F_2, F_3 or F_7, singular at e0 (no monomial of x0-degree
    >= d - 1), one draw in three with a degenerate Hessian there (no
    x0^(d-2) x_i x_(n-1)), and zero at e1 (no x1^d); G = F o A for a unit
    lower triangular integer A, so G is singular at A^-1 e0, off the
    coordinate points, and zero at A^-1 e1.  The point: A^-1 e0 scaled (two draws in five), A^-1 e1
    (singular or not), a random point (mostly off G) or the zero vector."""
    d = draw(st.integers(2, 4))
    nvars = draw(st.integers(3, 4 if d == 4 else 5))
    p = draw(st.sampled_from((None, 2, 3, 7)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    stream = SeedStream(draw(st.integers(0, 2**32)))
    degenerate = stream.randint(0, 2) == 0
    f = Polynomial(field, nvars, "x", {
        m: random_scalar(field, stream, 5) for m in monomials(nvars, d)
        if m[0] < d - 1 and m[1] < d and not (degenerate and m[0] == d - 2 and m[-1])
    })
    assume(not f.is_zero())
    a = [[int(i == j) if j >= i else stream.randint(-3, 3) for j in range(nvars)] for i in range(nvars)]
    kind = draw(st.sampled_from(("node", "node", "on", "random", "zero")))
    if kind == "node":
        scale = random_scalar(field, stream, 4)
        assume(scale != field.zero)
        point = [field.mul(scale, field.coerce(x)) for x in _unit_lower_inverse_column(a, 0)]
    elif kind == "on":
        point = _unit_lower_inverse_column(a, 1)
    else:
        point = [stream.randint(-3, 3) if kind == "random" else 0 for _ in range(nvars)]
    return linear_substitution(f, a), point


def _node_outcome(test, f, point):
    try:
        return test(f, point)
    except GradusError as err:
        return type(err), str(err)


@settings(max_examples=80, deadline=None)
@given(node_cases())
def test_is_node_matches_chart_route(case):
    # the rank of F's own Hessian gives the verdict, or the error, that the
    # affine Hessian in the chart of the point's pivot gives
    f, point = case
    assert _node_outcome(is_node, f, point) == _node_outcome(is_node_by_chart, f, point)


def test_evaluation_matrix_and_defects(special_cubic):
    pts = coordinate_points(QQ, 5)
    theta1 = evaluation_matrix(pts, 1)
    assert (theta1.nrows, theta1.ncols) == (5, 5) and rank(theta1) == 5
    for k in (1, 2, 3, 4):
        assert defect(pts, k).defect == 0
    assert defect(pts, 0).defect == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluation_matrix_matches_pow_loop(data):
    # the same entries, of the same types, as one field.pow product per
    # monomial and point: Fractions over Q, ints over F_p up to 2^61 - 1
    p = data.draw(st.sampled_from((None, 2, 7, 10007, (1 << 31) - 1, (1 << 61) - 1)))
    field = QQ if p is None else FieldConfig.prime_field(p)
    nvars, k = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    coord = st.fractions(-20, 20, max_denominator=9) if p is None else st.integers(-(1 << 70), 1 << 70)
    rows = data.draw(st.lists(st.lists(coord, min_size=nvars, max_size=nvars), max_size=6))
    try:
        pts = PointSet.from_raw(field, nvars, rows)
    except PreconditionError:  # a zero vector or a repeated point
        assume(False)
    theta, want = evaluation_matrix(pts, k), evaluation_by_pow(pts, k)
    assert theta.rows == tuple(map(tuple, want))
    assert [type(x) for r in theta.rows for x in r] == [type(x) for r in want for x in r]


def test_evaluation_matrix_is_bounded_before_the_monomials(monkeypatch):
    # two points at k = 120 in 5 variables: 18762502 cells, refused before
    # a monomial is listed; at k = 40, 271502 cells, inside the budget
    listed = []
    table = poly.monomials
    monkeypatch.setattr(poly, "monomials", lambda *a: listed.append(a) or table(*a))
    pts = PointSet.from_raw(QQ, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    with pytest.raises(BudgetExhaustedError, match="on 2 points has 18762502 cells"):
        evaluation_matrix(pts, 120)
    assert listed == []
    assert 2 * graded_dim(5, 40) < WORK_BUDGET < 18762502


def test_scans_and_evaluation_maps_never_evaluate_term_by_term(monkeypatch, special_cubic, fermat,
                                                               nodal_cubic):
    # every point scan, evaluation map and exact zero test reads
    # monomial_values: the scans, singular_points, ci_smooth's exact check
    # of an F_7 zero's lift and the node read off a rational sweep (its
    # cache cleared, so the sweep runs); and ci_smooth builds no Polynomial
    quadrics = [parse_poly(t, QQ, nvars=5) for t in ("x0*x1 + x2*x3 + x4^2", "x0^2")]

    def refuse(*_):
        raise AssertionError("Polynomial.evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    assert len(brute_singular_search(special_cubic, 7)) == 5
    assert evaluation_matrix(coordinate_points(QQ, 5), 3).nrows == 5
    f13 = parse_poly("x0*x1 - x2^2", FieldConfig.prime_field(13))
    assert next(_common_zeros_mod(_by_degree([f13]), 3, 7, 13)) == (1, 0, 0)
    assert next(_common_zeros_mod(_by_degree([special_q(QQ, 2, 3)]), 3, 7)) == (1, 0, 0)
    assert len(singular_points(special_cubic, coordinate_points(QQ, 5))) == 5
    _milnor_sweep.cache_clear()
    cert = is_smooth_hypersurface(nodal_cubic)
    assert cert.verdict == "singular" and cert.witness_point == (1, 0, 0, 0, 0)
    assert _milnor_sweep(nodal_cubic.normalized()).node == (1, 0, 0, 0, 0)
    built = []
    init = Polynomial.__init__
    monkeypatch.setattr(Polynomial, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    certs = [ci_smooth(fermat, q) for q in quadrics]
    assert [c.verdict for c in certs] == ["smooth", "singular"] and certs[1].witness_point
    assert built == []


def test_defect_single_point():
    pt = PointSet.from_raw(QQ, 3, [[1, 2, 3]])
    for k in (0, 1, 2, 5):
        assert defect(pt, k).defect == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_defect_over_q_matches_the_exact_rank(data):
    # the defect over Q, from the points scaled to primitive integers and
    # their rank mod DEFAULT_PRIME promoted when full, is that of the exact
    # rank of the Fraction evaluation map; coordinates DEFAULT_PRIME,
    # -2*DEFAULT_PRIME and 1/DEFAULT_PRIME make rows that are independent
    # over Q fall dependent mod p, so the exact rank must decide
    nvars, k = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    coord = st.one_of(st.fractions(-20, 20, max_denominator=9),
                      st.sampled_from((DEFAULT_PRIME, -2 * DEFAULT_PRIME, Fraction(1, DEFAULT_PRIME))))
    rows = data.draw(st.lists(st.lists(coord, min_size=nvars, max_size=nvars), max_size=7))
    try:
        pts = PointSet.from_raw(QQ, nvars, rows)
    except PreconditionError:  # a zero vector or a repeated point
        assume(False)
    assert defect(pts, k).defect == len(pts) - naive_rank_rational(evaluation_by_pow(pts, k))


def test_defect_over_q_promotes_a_full_modular_rank(monkeypatch):
    # a rank mod p that is full needs no exact rank; (1, 0) and
    # (1, DEFAULT_PRIME) share their row mod p at k = 1, so the exact rank
    # of the integer rows decides, and finds it full
    exact = []
    monkeypatch.setattr(defects, "rank", lambda m: exact.append(m.nrows) or rank(m))
    assert defect(coordinate_points(QQ, 5), 2).defect == 0
    assert defect(PointSet.from_raw(QQ, 2, [[1, 0], [1, 2], [1, 3]]), 1).defect == 1
    assert exact == []
    assert defect(PointSet.from_raw(QQ, 2, [[1, 0], [1, DEFAULT_PRIME]]), 1).defect == 0
    assert exact == [2]


def test_defect_monotone_in_degree():
    stream = SeedStream(55)
    for _ in range(50):
        npts = stream.randint(1, 6)
        rows = []
        seen = set()
        while len(rows) < npts:
            row = [stream.randint(-4, 4) for _ in range(4)]
            if any(row):
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        try:
            pts = PointSet.from_raw(QQ, 4, rows)
        except PreconditionError:
            continue  # projective collision after normalization
        prev = None
        for k in range(1, 5):
            d = defect(pts, k).defect
            if prev is not None:
                assert d <= prev
            prev = d
            assert d <= len(pts) - 1


def test_check_lemma_special_form(special_cubic):
    pts = coordinate_points(QQ, 5)
    rep2 = check_lemma_defect(special_cubic, pts, 2)
    assert rep2.holds and rep2.lhs == 10 and rep2.rhs == 10
    rep0 = check_lemma_defect(special_cubic, pts, 0)
    assert rep0.holds and rep0.lhs == 5 and rep0.reference_dim == 1 and rep0.defect == 4
    for k in (1, 3):
        assert check_lemma_defect(special_cubic, pts, k).holds


def test_check_lemma_range_enforced(special_cubic):
    pts = coordinate_points(QQ, 5)
    with pytest.raises(RangeError):
        check_lemma_defect(special_cubic, pts, 4)
    with pytest.raises(RangeError):
        check_lemma_defect(special_cubic, pts, -1)


def test_check_lemma_on_random_nodal_forms():
    """Random combinations of squarefree cubic monomials are singular exactly
    at the coordinate points when the scan and the stabilized Milnor dimension
    both say so; the identity must then hold across the whole range."""
    stream = SeedStream(606)
    pts = coordinate_points(QQ, 5)
    sqfree = [m for m in monomials(5, 3) if max(m) == 1]
    checked = 0
    guard = 0
    while checked < 5 and guard < 40:
        guard += 1
        terms = {m: Fraction(stream.randint(-5, 5)) for m in sqfree}
        f = Polynomial(QQ, 5, "x", terms)
        if f.is_zero():
            continue
        found = brute_singular_search(f, 7)
        expected = {tuple(1 if i == j else 0 for i in range(5)) for j in range(5)}
        if set(found.points) != expected:
            continue
        if not all(is_node(f, pt) for pt in pts.points):
            continue
        # stabilized Milnor dimension equals the node count: locus is exactly these
        if milnor_dim(f, 6) != 5 or milnor_dim(f, 7) != 5:
            continue
        for k in range(0, 4):
            assert check_lemma_defect(f, pts, k).holds
        checked += 1
    assert checked == 5


def test_point_set_normalization_and_duplicates():
    ps = PointSet.from_raw(QQ, 3, [[2, 4, 6]])
    assert ps.points == ((1, 2, 3),)
    with pytest.raises(PreconditionError):
        PointSet.from_raw(QQ, 3, [[1, 2, 3], [2, 4, 6]])
    with pytest.raises(PreconditionError):
        PointSet.from_raw(QQ, 3, [[0, 0, 0]])


def test_parse_points_file():
    text = "# singular locus\n1, 0, 0\n0, 1/2, 3\n\n"
    ps = parse_points(text, QQ)
    assert ps.points == ((1, 0, 0), (0, 1, 6))
    with pytest.raises(ParseError):
        parse_points("1, two, 3", QQ)
    with pytest.raises(ParseError):
        parse_points("# nothing\n", QQ)


def test_point_scans_are_bounded_before_the_first_point(fermat):
    # 4-space has 954305 points over F_31 and 1926221 over F_37
    assert (31**5 - 1) // 30 <= WORK_BUDGET < (37**5 - 1) // 36
    assert next(projective_points(5, 31)) == (1, 0, 0, 0, 0)
    with pytest.raises(BudgetExhaustedError, match="1926221 points"):
        next(projective_points(5, 37))
    with pytest.raises(BudgetExhaustedError):
        brute_singular_search(fermat, 101)
