import pytest

from gradus import (
    FieldConfig,
    Polynomial,
    SeedStream,
    mat_mul,
    mult_map,
    parse_poly,
    random_poly,
    rank,
    slp_check,
    slp_search,
)
from gradus.cli import main
from gradus.errors import AmbientMismatchError, PreconditionError, ZeroPolynomialError
from gradus.poly import monomials

QQ = FieldConfig.rationals()


def _linear(coeffs):
    return Polynomial(QQ, 5, "x", {m: QQ.coerce(c) for m, c in zip(monomials(5, 1), coeffs)})


def test_mult_by_one_is_identity(smooth_cubics):
    f = smooth_cubics[0]
    one = Polynomial.constant(QQ, 5, 1)
    for j in (0, 1, 2, 3):
        m = mult_map(f, one, j)
        assert m == type(m).identity(QQ, m.nrows)


def test_mult_by_linear_form_degree2_rank(smooth_cubics):
    f = smooth_cubics[1]
    ell = _linear([1, 2, -1, 3, 5])
    m = mult_map(f, ell, 2)
    assert (m.nrows, m.ncols) == (10, 10)
    assert rank(m) == 10


def test_mult_by_jacobian_element_is_zero(smooth_cubics):
    f = smooth_cubics[2]
    m = mult_map(f, f.partial(3), 1)
    assert m.is_zero()


def test_mult_map_rejects_zero_and_singular(smooth_cubics, special_cubic):
    f = smooth_cubics[0]
    with pytest.raises(ZeroPolynomialError):
        mult_map(f, Polynomial.zero(QQ, 5), 1)
    with pytest.raises(PreconditionError):
        mult_map(special_cubic, _linear([1, 0, 0, 0, 0]), 1)


def test_mult_map_and_slp_check_reject_another_ring(smooth_cubics, capsys):
    f = smooth_cubics[0]
    others = (
        parse_poly("y0+y1+y2+y3+y4", QQ),  # the dual family
        parse_poly("x0+x1", QQ),  # 2 variables
        parse_poly("x0+x1", FieldConfig.prime_field(7), nvars=5),
    )
    for g in others:
        with pytest.raises(AmbientMismatchError):
            mult_map(f, g, 1)
        with pytest.raises(AmbientMismatchError):
            slp_check(f, g)
    fermat = "x0^3+x1^3+x2^3+x3^3+x4^3"
    assert main(["lefschetz", "--poly", fermat, "--ell", "y0+y1+y2+y3+y4"]) == 2
    assert "different rings" in capsys.readouterr().err


def test_slp_check_random_smooth(smooth_cubics):
    f = smooth_cubics[3]
    prof = slp_check(f, _linear([2, -3, 1, 1, 4]))
    assert prof.verdict
    assert {k: v[2] for k, v in prof.per_k.items()} == {0: 1, 1: 5, 2: 10}


def test_slp_check_fermat_sum_of_variables(fermat):
    prof = slp_check(fermat, _linear([1, 1, 1, 1, 1]))
    assert prof.verdict
    assert prof.per_k[1] == (5, 5, 5) and prof.per_k[2] == (10, 10, 10)


def test_slp_check_rejects_bad_ell(smooth_cubics):
    f = smooth_cubics[0]
    with pytest.raises(ZeroPolynomialError):
        slp_check(f, Polynomial.zero(QQ, 5))
    with pytest.raises(PreconditionError):
        slp_check(f, parse_poly("x0^2", QQ, nvars=5))


def test_slp_search_finds_witness(smooth_cubics):
    for f in smooth_cubics[:5]:
        res = slp_search(f, trials=5, seed=0)
        assert res.found and res.trial_index == 0


def test_slp_search_rejects_singular(special_cubic):
    with pytest.raises(PreconditionError):
        slp_search(special_cubic, trials=2, seed=0)


def test_slp_search_deterministic(smooth_cubics):
    f = smooth_cubics[4]
    a = slp_search(f, trials=3, seed=9)
    b = slp_search(f, trials=3, seed=9)
    assert a.ell == b.ell and a.trial_index == b.trial_index


def test_power_map_factorizes(smooth_cubics):
    # matrix of ell^3: M_1 -> M_4 equals (ell: M_3 -> M_4) o (ell^2: M_1 -> M_3)
    f = smooth_cubics[5]
    ell = _linear([1, -2, 4, 0, 3])
    cube = mult_map(f, ell.pow(3), 1)
    step = mat_mul(mult_map(f, ell, 3), mult_map(f, ell.pow(2), 1))
    assert cube == step


def test_specific_power_ranks(smooth_cubics):
    f = smooth_cubics[6]
    res = slp_search(f, trials=5, seed=2)
    assert res.found
    ell = res.ell
    assert rank(mult_map(f, ell.pow(3), 1)) == 5
    assert rank(mult_map(f, ell, 2)) == 10


def test_injectivity_transfers_to_quadrics(smooth_cubics):
    # a full-rank square of a linear form implies random quadrics quickly
    # witness the same rank (openness of maximal rank)
    for fi, f in enumerate(smooth_cubics):
        res = slp_search(f, trials=5, seed=3)
        assert res.found
        assert rank(mult_map(f, res.ell.pow(2), 1)) == 5
        stream = SeedStream(9000 + fi)
        for draw in range(3):
            q = random_poly(QQ, stream, 5, 2, 10)
            if not q.is_zero() and rank(mult_map(f, q, 1)) == 5:
                break
        else:
            raise AssertionError(f"no full-rank quadric within 3 draws for fixture {fi}")


def test_slp_verdict_scale_invariant(smooth_cubics):
    f = smooth_cubics[7]
    ell = _linear([3, 1, 0, -2, 1])
    p1 = slp_check(f, ell)
    p2 = slp_check(f.scale(5), ell.scale(-7))
    assert p1.verdict == p2.verdict and p1.per_k == p2.per_k
