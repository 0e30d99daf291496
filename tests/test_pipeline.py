import json
from fractions import Fraction

import pytest

from gradus import (
    FieldConfig,
    construct_pair,
    Polynomial,
    SeedStream,
    child_seed,
    colon_graded,
    deformation_experiment,
    is_smooth_hypersurface,
    jacobian_graded,
    membership_u,
    mult_map,
    parse_poly,
    perp_graded,
    polar_pair,
    random_poly,
    rank,
    reproduce_example,
    slp_search,
    theorem14_check,
    verify_corollary,
)
from gradus import apolarity, jacobian, linalg, pipeline, poly
from gradus.errors import PreconditionError
from gradus.linalg import DEFAULT_BOUND
from gradus.poly import random_linear_form
from gradus.report import to_jsonable

QQ = FieldConfig.rationals()


def test_membership_rejects_singular(special_cubic):
    um = membership_u(special_cubic, trials=3, seed=0)
    assert not um.in_u
    assert "singular" in um.reason


def test_membership_rejects_nonpositive_bound():
    # a bound of 0 draws only zero combinations; it used to redraw forever
    f = parse_poly("x0^3 + x1^3 + x2^3", QQ)
    for bound in (0, -1):
        with pytest.raises(PreconditionError, match="bound"):
            membership_u(f, trials=1, seed=0, bound=bound)


def test_membership_above_socle_degree_is_not_certified():
    # degree 2 > T = 0: the Milnor algebra and the perp are zero there, so
    # there is nothing to draw; this used to break the perp invariant
    for text in ("x0^2 + x1^2 + x2^2", "x0 + 2*x1"):
        um = membership_u(parse_poly(text, QQ), trials=3, seed=0)
        assert um.verdict == "not_certified" and um.trials_used == 0
        assert "perp of the Jacobian piece is zero" in um.reason


def test_membership_smooth_cubics_perp_dimension(smooth_cubics):
    for f in smooth_cubics[:5]:
        assert perp_graded(jacobian_graded(f, 3)).dim == 10


def test_membership_witness_reverifies(u_pairs):
    f, um, _ = u_pairs[0]
    g = um.witness
    assert is_smooth_hypersurface(g).is_smooth
    j3 = jacobian_graded(f, 3)
    for row in j3.basis.rows:
        b = Polynomial.from_vector(QQ, 5, "x", 3, row)
        assert polar_pair(b, g) == 0


def test_membership_scaling_invariance(smooth_cubics):
    f = smooth_cubics[0]
    a = membership_u(f, trials=5, seed=7)
    b = membership_u(f.scale(Fraction(4, 3)), trials=5, seed=7)
    assert a.verdict == b.verdict == "in_u"
    assert a.witness.normalized() == b.witness.normalized()
    assert a.trials_used == b.trials_used


def test_construct_pair_certificates(u_pairs):
    for f, um, cert in u_pairs:
        assert cert.y_smooth.is_smooth and cert.y_smooth.degree <= 12
        assert cert.c == um.witness.normalized()
        assert cert.c_smooth.is_smooth
        assert cert.colon1_dim == 0


def test_construct_pair_rejects_foreign_witness(smooth_cubics):
    from gradus import construct_pair, fermat_form

    f = smooth_cubics[0]
    with pytest.raises(PreconditionError):
        construct_pair(f, fermat_form(QQ, 5, 3, family="y"), seed=0)


def test_verify_corollary_on_constructed_pairs(u_pairs):
    f, _, cert = u_pairs[0]
    rep = verify_corollary(f, cert.q)
    assert all(item["pass"] for item in rep.items.values()), rep.items


def test_verify_corollary_jacobian_quadric_fails_item_two(smooth_cubics):
    f = smooth_cubics[1]
    rep = verify_corollary(f, f.partial(2))
    assert not rep.items["cubic_smooth"]["pass"]
    assert "dimension 0" in rep.items["cubic_smooth"]["error"]
    assert not rep.items["colon_degree1_zero"]["pass"]


def test_verify_corollary_random_pair_colon_zero(smooth_cubics):
    f = smooth_cubics[2]
    stream = SeedStream(2718)
    q = random_poly(QQ, stream, 5, 2, 10)
    rep = verify_corollary(f, q)
    assert rep.items["colon_degree1_zero"]["pass"]
    assert rep.colon1_dim == 0


def test_certificate_reverification_is_reproducible(u_pairs):
    f, _, cert = u_pairs[1]
    rep1 = verify_corollary(f, cert.q)
    rep2 = verify_corollary(f, cert.q)
    assert json.dumps(to_jsonable(rep1.as_dict()), sort_keys=True) == json.dumps(
        to_jsonable(rep2.as_dict()), sort_keys=True
    )


def test_theorem14_on_smooth_cubics(smooth_cubics):
    for f in smooth_cubics[:10]:
        rep = theorem14_check(f, trials=5, seed=5)
        assert rep.success, rep.as_dict()
        assert rep.colon1_dim == 0
        assert rep.y_smooth.is_smooth


def test_theorem14_distinguishes_rank_from_smoothness(smooth_cubics):
    # the square of a linear witness already certifies the rank condition,
    # independently of whether it cuts a smooth surface
    from gradus import mult_map, rank, slp_search

    f = smooth_cubics[3]
    res = slp_search(f, trials=5, seed=1)
    assert res.found
    q = res.ell.pow(2)
    assert rank(mult_map(f, q, 1)) == 5
    assert colon_graded(f, q, 1).dim == 0


@pytest.mark.parametrize("p", [None, 10007], ids=["q", "fp"])
def test_theorem14_ranks_and_colon_match_the_j_basis_routes(smooth_cubics, p):
    # every rank_ok of theorem14_check, the ell check's included, and its
    # colon are read off the socle catalecticant; redraw its forms and check
    # them against the J-basis multiplication map and colon
    field = QQ if p is None else FieldConfig.prime_field(p)
    for f in smooth_cubics[:2]:
        f = f if p is None else parse_poly(str(f), field, nvars=5)
        rep = theorem14_check(f, trials=5, seed=5)

        def full_rank(g):
            return rank(mult_map(f, g, 1)) == 5

        ells = [random_linear_form(field, SeedStream(child_seed(5, i)), 5, DEFAULT_BOUND)
                for i in range(rep.ell_trials)]
        assert [full_rank(ell * ell) for ell in ells] == [
            rep.ell_witness is not None and i == rep.ell_trials - 1 for i in range(rep.ell_trials)]
        for i, attempt in enumerate(rep.q_attempts):
            q = random_poly(field, SeedStream(child_seed(5, 5 + i)), 5, 2, DEFAULT_BOUND)
            assert attempt["rank_ok"] == (not q.is_zero() and full_rank(q))
        assert rep.q_witness is not None
        assert rep.colon1_dim == colon_graded(f, rep.q_witness, 1).dim == 0


def test_theorem14_and_slp_search_over_q_make_no_exact_elimination(smooth_cubics, monkeypatch):
    # on smooth cubics whose sweeps are cached, every rank is read off the
    # sweep's degree-T column mod p and promoted: no lambda lift and no
    # rational rref
    forms = smooth_cubics[:3]
    assert all(is_smooth_hypersurface(f).is_smooth for f in forms)
    monkeypatch.setattr(linalg, "_null_space", lambda *a: pytest.fail("exact elimination"))
    for f in forms:
        assert theorem14_check(f, trials=5).success
        assert slp_search(f, trials=5).found


def test_theorem14_rejects_singular(special_cubic):
    with pytest.raises(PreconditionError):
        theorem14_check(special_cubic, trials=2, seed=0)


@pytest.mark.parametrize("text, nvars", [("x0^3+x1^3+x2^3", 3), ("x0^4+x1^4+x2^4+x3^4+x4^4", 5)])
def test_theorem14_rejects_another_configuration_before_any_rank(monkeypatch, text, nvars):
    # a smooth form that is not a cubic in 5 variables is rejected right
    # after its smoothness check, before the ell search takes a rank
    f = parse_poly(text, QQ, nvars=nvars)
    assert is_smooth_hypersurface(f).is_smooth
    monkeypatch.setattr(pipeline, "_quotient_rank", lambda *a: pytest.fail("rank taken"))
    with pytest.raises(PreconditionError, match="cubic/quadric configuration in 5 variables"):
        theorem14_check(f, trials=5, seed=0)


def test_deformation_experiment():
    rep = deformation_experiment(seed=1, steps=3, trials=3)
    assert len(rep["steps"]) == 3
    for step in rep["steps"]:
        assert step["smooth"] == "smooth"
        assert step["perp_dim"] == 10
        assert step["membership"] == "in_u"
    assert rep["smallest_t_in_u"] == "1/3"
    assert rep["t_zero"]["smooth"] == "singular"


def test_deformation_requires_rational_field():
    with pytest.raises(PreconditionError):
        deformation_experiment(seed=0, steps=1, field=FieldConfig.prime_field(10007))


def test_reproduce_example_all_pass():
    rep = reproduce_example()
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert rep["all_passed"], failed
    names = {c["name"] for c in rep["checks"]}
    assert {"milnor_dim_3_is_10", "jacobian_degree4_equals_w", "all_points_are_nodes"} <= names


def _clear_caches():
    for mod in (apolarity, jacobian, linalg, pipeline, poly):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_rational_pair_job_does_its_work_once(monkeypatch):
    # one Q pair job on a dense cubic with every cache cleared: F's partials
    # are built once per variable, ci_smooth multiplies no Polynomials, and
    # lambda comes off the lift of J_5 with no span and no rref
    f = random_poly(QQ, SeedStream(20261018), 5, 3, 10)
    assert len(f.terms) == 35
    _clear_caches()
    socle = apolarity._socle_functional
    calls = []  # (name, the spied calls it runs inside, its arguments)
    inside = []

    def spy(mod, name):
        fn = getattr(mod, name)

        def wrapped(*args, **kwargs):
            calls.append((name, tuple(inside), args))
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(mod, name, wrapped)

    for mod, name in ((Polynomial, "partial"), (Polynomial, "__mul__"), (pipeline, "ci_smooth"),
                      (apolarity, "_socle_functional"), (linalg, "rref"), (linalg, "span"),
                      (jacobian, "rref"), (jacobian, "span"), (apolarity, "span")):
        spy(mod, name)
    um = membership_u(f, trials=5, seed=7)
    cert = construct_pair(f, um.witness, seed=7)
    assert um.in_u and cert.y_smooth.is_smooth and cert.c_smooth.is_smooth
    assert sorted(args[1] for name, _, args in calls if name == "partial" and args[0] is f) == [0, 1, 2, 3, 4]
    assert not [name for name, within, _ in calls if name == "__mul__" and "ci_smooth" in within]
    assert "ci_smooth" in [name for name, _, _ in calls] and socle.cache_info().misses == 1
    assert not [name for name, within, _ in calls if "_socle_functional" in within and name != "partial"]


def test_rational_lambda_is_one_elimination(monkeypatch):
    # one Q pair job on a dense cubic with every cache cleared: lambda
    # eliminates [A^T | I] for J_5's 175 x 126 generator rows A once, a
    # 126 x 301 matrix, and nothing eliminates the J_5 rows themselves or
    # inverts a 125 x 125 pivot block through [B | I]
    f = random_poly(QQ, SeedStream(20261018), 5, 3, 10)
    _clear_caches()
    shapes, inside = [], []  # (rows, columns, within lambda) per elimination
    socle = apolarity._socle_functional

    def in_socle(f):
        inside.append(True)
        try:
            return socle(f)
        finally:
            inside.pop()

    monkeypatch.setattr(apolarity, "_socle_functional", in_socle)
    for mod in (jacobian, linalg):  # each module's own binding
        def eliminate(matrix, ncols, p, eliminate=mod._eliminate_mod):
            shapes.append((len(matrix), ncols, bool(inside)))
            return eliminate(matrix, ncols, p)

        monkeypatch.setattr(mod, "_eliminate_mod", eliminate)
    um = membership_u(f, trials=5, seed=7)
    cert = construct_pair(f, um.witness, seed=7)
    assert um.in_u and cert.y_smooth.is_smooth and cert.c_smooth.is_smooth
    assert [s for s in shapes if s[2]] == [(126, 301, True)]
    assert not [s for s in shapes if s[:2] in ((175, 126), (125, 250))]


def test_prime_field_pair_job_reads_lambda_off_the_sweep(monkeypatch):
    # one F_10007 pair job on a dense cubic with every cache cleared: lambda
    # is the sweep's degree-T normal form, so no degree-5 Macaulay rows are
    # built and nothing eliminates a matrix with graded_dim(5, 5) columns
    fp = FieldConfig.prime_field(10007)
    f = random_poly(fp, SeedStream(20261018), 5, 3, 10)
    _clear_caches()
    row_degrees, widths = [], []
    shifted = jacobian._shifted_rows

    def record_rows(vec, nvars, e, k, *args, **kwargs):
        row_degrees.append(k)
        return shifted(vec, nvars, e, k, *args, **kwargs)

    monkeypatch.setattr(jacobian, "_shifted_rows", record_rows)
    for mod in (apolarity, jacobian, linalg):  # each module's own binding
        if hasattr(mod, "_eliminate_mod"):
            def eliminate(matrix, ncols, p, eliminate=mod._eliminate_mod):
                widths.append(ncols)
                return eliminate(matrix, ncols, p)

            monkeypatch.setattr(mod, "_eliminate_mod", eliminate)
    um = membership_u(f, trials=5, seed=7)
    cert = construct_pair(f, um.witness, seed=7)
    assert um.in_u and cert.y_smooth.is_smooth and cert.c_smooth.is_smooth
    assert row_degrees and 5 not in row_degrees
    assert widths and 126 not in widths
