import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradus import (
    FieldConfig,
    GradedSubspace,
    Matrix,
    SeedStream,
    child_seed,
    fermat_form,
    is_smooth_hypersurface,
    jacobian_graded,
    kernel,
    milnor_dim,
    random_scalar,
    rank,
    rref,
    span,
    special_q,
)
from gradus import apolarity, jacobian, linalg
from gradus.errors import PreconditionError
from gradus.linalg import (
    _LIFT_PRIME,
    _elimination_dtype,
    is_prime,
    rank_mod,
)
from gradus.poly import random_poly

from .oracles import (
    jacobian_rows,
    kernel_by_two_rrefs,
    naive_rank,
    naive_rank_mod,
    naive_reduce,
    naive_rref_mod,
    naive_rref_rational,
)

QQ = FieldConfig.rationals()
FP = FieldConfig.prime_field(10007)


def random_matrix(field, stream, nrows, ncols, bound=10):
    return Matrix(
        field,
        [[random_scalar(field, stream, bound) for _ in range(ncols)] for _ in range(nrows)],
        ncols,
    )


def test_field_config_validation():
    assert QQ.descriptor() == "rational"
    assert FP.descriptor() == "fp:10007"
    with pytest.raises(PreconditionError):
        FieldConfig.prime_field(10006)
    with pytest.raises(PreconditionError):
        FieldConfig.parse("fp:abc")
    assert FieldConfig.parse("fp:7").modulus == 7


def test_scalar_coercion():
    assert QQ.coerce(Fraction(6, 4)) == Fraction(3, 2)
    assert FP.coerce(Fraction(1, 2)) == pow(2, -1, 10007)
    assert FP.coerce(-1) == 10006


def test_rref_identity():
    i3 = Matrix.identity(QQ, 3)
    red, piv, rk = rref(i3)
    assert red == i3 and rk == 3 and piv == (0, 1, 2)


def test_rref_zero_matrix():
    z = Matrix(QQ, [[QQ.zero] * 5] * 2, 5)
    red, piv, rk = rref(z)
    assert red == z and rk == 0 and piv == ()


def test_rref_idempotent_and_canonical():
    stream = SeedStream(5)
    for field in (QQ, FP):
        for _ in range(5):
            m = random_matrix(field, stream, 6, 9, 5)
            red, _, _ = rref(m)
            red2, _, _ = rref(red)
            assert red2 == red
            # row-equivalent variant: scale, swap, add multiples
            rows = [list(r) for r in m.rows]
            rows[0], rows[3] = rows[3], rows[0]
            c = field.coerce(3)
            rows[1] = [field.mul(c, x) for x in rows[1]]
            rows[2] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[2], rows[5])]
            assert rref(Matrix(field, rows, 9))[0] == red


def test_rank_against_oracle_rational():
    stream = SeedStream(99)
    m = random_matrix(QQ, stream, 20, 35, 10)
    assert rank(m) == naive_rank(m.rows, QQ)


def test_kernel_identity_and_small():
    assert kernel(Matrix.identity(QQ, 4)).nrows == 0
    k = kernel(Matrix(QQ, [[Fraction(1), Fraction(1)]], 2))
    assert k.rows == ((Fraction(1), Fraction(-1)),)


def test_kernel_random_oracle():
    stream = SeedStream(7)
    for field in (QQ, FP):
        m = random_matrix(field, stream, 10, 15, 8)
        null = kernel(m)
        assert null.nrows == 15 - naive_rank(m.rows, field)
        zero = field.zero
        for v in null.rows:
            prods = [
                sum((field.mul(a, b) for a, b in zip(row, v)), zero)
                if field.is_rational
                else sum(a * b for a, b in zip(row, v)) % field.modulus
                for row in m.rows
            ]
            assert all(x == zero for x in prods)


def test_seed_stream_determinism():
    a = SeedStream(123)
    b = SeedStream(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert child_seed(5, 0) != child_seed(5, 1)


def test_random_scalar_bounds_and_determinism():
    s1 = SeedStream(0)
    s2 = SeedStream(0)
    draws1 = [random_scalar(QQ, s1, 1) for _ in range(200)]
    draws2 = [random_scalar(QQ, s2, 1) for _ in range(200)]
    assert draws1 == draws2
    assert set(draws1) <= {Fraction(-1), Fraction(0), Fraction(1)}
    with pytest.raises(PreconditionError):
        random_scalar(QQ, s1, 0)


def test_prime_field_uniformity_5_sigma():
    # 10^4 draws mod 10007, 20 buckets, each within 5 sigma of expectation
    stream = SeedStream(31337)
    n = 10_000
    p = 10007
    buckets = [0] * 20
    for _ in range(n):
        r = random_scalar(FP, stream, 1)
        buckets[r * 20 // p] += 1
    # bucket b holds residues r with r*20//p == b
    sizes = [0] * 20
    for r in range(p):
        sizes[r * 20 // p] += 1
    for b in range(20):
        prob = sizes[b] / p
        mean = n * prob
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(buckets[b] - mean) <= 5 * sigma, f"bucket {b} off: {buckets[b]} vs {mean}"


def test_rank_mod_p_at_most_rational_rank():
    stream = SeedStream(2024)
    small = FieldConfig.prime_field(101)
    for _ in range(100):
        nrows = stream.randint(1, 8)
        ncols = stream.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = []
            for _ in range(ncols):
                v = stream.randint(-20, 20)
                if stream.randint(0, 9) == 0:
                    v *= 101
                row.append(v)
            rows.append(row)
        rq = rank(Matrix(QQ, [[Fraction(x) for x in r] for r in rows], ncols))
        rp = rank(Matrix(small, [[x % 101 for x in r] for r in rows], ncols))
        assert rp <= rq


def test_matrix_shape_errors():
    with pytest.raises(PreconditionError):
        Matrix(QQ, [[QQ.one, QQ.zero], [QQ.one]], 2)


def test_large_prime_python_backend():
    big = FieldConfig.prime_field((1 << 61) - 1)
    m = Matrix(big, [[1, 2], [2, 4]], 2)
    red, piv, rk = rref(m)
    assert rk == 1 and piv == (0,)
    assert kernel(m).nrows == 1


def test_graded_subspace_equality_is_structural():
    vecs = [[Fraction(2), Fraction(0), Fraction(4)], [Fraction(0), Fraction(3), Fraction(3)]]
    a = span(QQ, 3, 1, "x", vecs)
    b = span(QQ, 3, 1, "x", [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(1)]])
    assert a == b and isinstance(a, GradedSubspace)


# primes on both sides of the eliminator's dtype switches: int32 up to 46337
# (slack 21 at 10007, 5 at 20011, 1 at 46337), int64 from 46349 to 2^31 - 1,
# `object` above, both where a product of two residues would fit int64
# (2^31 + 11) and where it would not (2^61 - 1)
ELIMINATION_PRIMES = (
    2, 3, 101, 10007, 20011, 46337, 46349, (1 << 31) - 1, (1 << 31) + 11, (1 << 61) - 1
)


def dense_pivot_rows(nrows: int, rank: int, ncols: int) -> list:
    """L*U for L (nrows x rank) and U (rank x ncols) with unit diagonals, -1
    below L's and above U's and 0 elsewhere: mod every p, elimination takes
    `rank` pivots in order, each with factors p-1 and a pivot row of p-1, so
    every trailing entry loses the largest product (p-1)^2 at every pivot."""
    low = [[1 if i == k else -(k < i) for k in range(rank)] for i in range(nrows)]
    up = [[1 if j == k else -(j > k) for j in range(ncols)] for k in range(rank)]
    return [[sum(x * u[j] for x, u in zip(row, up)) for j in range(ncols)] for row in low]


@st.composite
def int_matrices(draw, dense_pivots=False):
    """(rows, ncols): small integer matrices, often rank deficient, some
    entries far beyond the modulus so reduction mod p is exercised.  With
    `dense_pivots`, one draw in four is `dense_pivot_rows` with 44 to 48
    pivots, at least 2 * slack + 2 for every int32 prime but 2, 3 and 101,
    so the delayed reduction reaches its bound mid-sweep.  Another draw in
    four plants each row's leading column: distinct leads, repeated ones
    and zero rows, tall or wide, with entries -1 and -2 (p-1 and p-2 mod
    every p), so the reducer block's products reach (p-1)^2 per term."""
    if dense_pivots and draw(st.integers(0, 3)) == 0:
        rank = draw(st.integers(44, 48))
        nrows, ncols = rank + draw(st.integers(0, 2)), rank + draw(st.integers(0, 2))
        return dense_pivot_rows(nrows, rank, ncols), ncols
    if draw(st.integers(0, 3)) == 0:
        ncols = draw(st.integers(1, 9))
        near = st.one_of(st.sampled_from((-1, -2, -1, 0)), st.integers(-(1 << 70), 1 << 70))
        rows = []
        for lead in draw(st.lists(st.integers(0, ncols), min_size=1, max_size=14)):
            if lead == ncols:
                rows.append([0] * ncols)
                continue
            tail = draw(st.lists(near, min_size=ncols - lead - 1, max_size=ncols - lead - 1))
            rows.append([0] * lead + [draw(st.sampled_from((-1, 1, -2)))] + tail)
        return rows, ncols
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-2, 2), st.integers(-(1 << 70), 1 << 70))
    base = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    # append integer combinations of earlier rows
    for _ in range(draw(st.integers(0, 3)) if base else 0):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        base.append([a * x + b * y for x, y in zip(base[i], base[j])])
    return base, ncols


@settings(max_examples=150, deadline=None)
@given(int_matrices(dense_pivots=True), st.sampled_from(ELIMINATION_PRIMES))
def test_rank_mod_matches_oracle(matrix, p):
    rows, ncols = matrix
    assert rank_mod(rows, ncols, p) == naive_rank_mod(rows, p)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.sampled_from(ELIMINATION_PRIMES))
def test_eliminate_mod_matches_naive_gauss_jordan(matrix, p):
    rows, ncols = matrix
    a, pivots = linalg._eliminate_mod(rows, ncols, p)
    expected, expected_pivots = naive_rref_mod(rows, ncols, p)
    assert pivots == expected_pivots
    assert a.tolist() == expected + [[0] * ncols] * (len(rows) - len(pivots))


@pytest.mark.parametrize("p", [(1 << 31) + 11, 3037000493])
def test_rows_sharing_one_lead_reduce_at_every_prime(p):
    # one lead, so each product sums a single term, which would fit int64
    # up to the largest prime 3037000493 with (p-1)^2 < 2^63; but above 2^31
    # the residues are Python ints and the remainder's update stays in them
    rows, ncols = [[1, 2], [1, 3]], 2
    assert linalg._eliminate_mod(rows, ncols, p)[0].tolist() == [[1, 0], [0, 1]]
    rows, ncols = [[2, 5, p - 1], [3, 1, 4], [p - 1, 0, 7]], 3
    a, pivots = linalg._eliminate_mod(rows, ncols, p)
    expected, expected_pivots = naive_rref_mod(rows, ncols, p)
    assert pivots == expected_pivots and a.tolist() == expected


@pytest.mark.parametrize("p", [10007, (1 << 31) - 1, (1 << 61) - 1])
def test_echelon_rows_with_distinct_leads_skip_the_column_loop(monkeypatch, p):
    # rows already in echelon form, each leading at its own column, are the
    # reducer block whole: the column loop gets a remainder of no rows
    leads, ncols = (0, 2, 3, 6), 8
    rows = [[0] * c + [-1] * (ncols - c) for c in leads]
    remainders, loop = [], linalg._gauss_jordan

    def spy(a, *args):
        remainders.append(len(a))
        return loop(a, *args)

    monkeypatch.setattr(linalg, "_gauss_jordan", spy)
    a, pivots = linalg._eliminate_mod(rows, ncols, p)
    assert remainders == [0] and pivots == list(leads)
    assert a.tolist() == naive_rref_mod(rows, ncols, p)[0]


def test_block_products_run_in_int64_while_their_sums_fit(monkeypatch):
    # at the lift prime (about 2^26) int64 holds a sum of up to 2047
    # products of two residues; a block 2100 columns wide whose products sum
    # over a few leads and new pivots reduces only int64 arrays, never
    # Python ints, and still gives the rref
    p, ncols = linalg._LIFT_PRIME, 2100
    assert ncols * (p - 1) ** 2 >= 1 << 63 > 2047 * (p - 1) ** 2
    assert linalg._elimination_dtype(p)[0] is np.int64
    rng = np.random.default_rng(3)
    rows = rng.integers(0, p, (8, ncols)).tolist()
    for i, lead in ((5, 4), (6, 9), (7, 9)):  # three more rows, two leads
        rows[i][:lead] = [0] * lead
    reduced, mod = [], linalg._mod
    monkeypatch.setattr(linalg, "_mod", lambda x, p: reduced.append(x.dtype) or mod(x, p))
    a, pivots = linalg._eliminate_mod(rows, ncols, p)
    assert reduced and set(reduced) == {np.dtype(np.int64)}
    expected, expected_pivots = naive_rref_mod(rows, ncols, p)
    assert pivots == expected_pivots and a.tolist() == expected


def test_rank_mod_leaves_a_caller_array_as_it_is():
    # _eliminate_mod eliminates an array of its own dtype in place, with no
    # copy; rank_mod must not change a caller's array of that dtype
    p = 10007
    assert linalg._elimination_dtype(p)[0] is np.int32
    rows = np.array([[2, 4, 6], [1, 2, 3], [0, 5, p - 1]], dtype=np.int32)
    before = rows.copy()
    assert rank_mod(rows, 3, p) == 2
    assert rows.dtype == np.int32 and (rows == before).all()
    assert np.shares_memory(linalg._eliminate_mod(rows, 3, p)[0], rows)


@settings(max_examples=100, deadline=None)
@given(int_matrices(dense_pivots=True), st.sampled_from(ELIMINATION_PRIMES))
def test_rref_mod_p_idempotent_and_keeps_row_space(matrix, p):
    rows, ncols = matrix
    field = FieldConfig.prime_field(p)
    m = Matrix(field, [[x % p for x in row] for row in rows], ncols)
    red, pivots, rk = rref(m)
    assert rk == naive_rank_mod(m.rows, p) == len(pivots)
    assert rref(red)[0] == red
    # same row space: stacking the rref rows under m adds no rank
    assert naive_rank_mod(m.rows + red.rows, p) == rk
    for i, c in enumerate(pivots):
        assert red.rows[i][c] == 1
        assert all(red.rows[j][c] == 0 for j in range(red.nrows) if j != i)


@st.composite
def subspaces_and_vectors(draw):
    """(subspace, vector) over Q or F_p for p in ELIMINATION_PRIMES; the
    basis is empty, full, or spanned by random (often dependent) rows."""
    p = draw(st.sampled_from((None,) + ELIMINATION_PRIMES))
    field = QQ if p is None else FieldConfig.prime_field(p)
    if p is None:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        scalar = st.one_of(st.integers(0, min(2, p - 1)), st.integers(0, p - 1))
    nvars, degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    ncols = math.comb(nvars - 1 + degree, degree)
    row = st.lists(scalar, min_size=ncols, max_size=ncols)
    kind = draw(st.sampled_from(("empty", "random", "full")))
    rows = [] if kind == "empty" else draw(st.lists(row, max_size=ncols + 2))
    if kind == "full":
        rows += Matrix.identity(field, ncols).rows
    sub = span(field, nvars, degree, "x", rows)
    return sub, draw(row)


@settings(max_examples=200, deadline=None)
@given(subspaces_and_vectors())
def test_reduce_matches_full_row_oracle(case):
    sub, vec = case
    fast = sub.reduce(vec)
    assert len(fast) == sub.ambient_dim
    assert fast == naive_reduce(sub, vec)
    assert all(fast[c] == sub.field.zero for c in sub.pivots)


def test_rref_and_rank_mod_on_full_rank_jacobian_piece():
    # J_6 of a smooth cubic in 5 variables is the whole degree-6 piece
    # (6 > T = 5), so its 350 x 210 generator matrix has the identity rref
    f = random_poly(FP, SeedStream(child_seed(20260101, 3)), 5, 3, 10)
    assert is_smooth_hypersurface(f).is_smooth
    rows = jacobian_rows(f, 6)
    assert len(rows) == 350 and len(rows[0]) == 210
    red, pivots, rk = rref(Matrix(FP, rows, 210))
    assert rk == 210 and pivots == tuple(range(210))
    assert red.rows[:210] == Matrix.identity(FP, 210).rows
    assert all(not any(r) for r in red.rows[210:])
    assert rank_mod(rows, 210, 10007) == 210


def assert_rref_matches_oracle(rows, ncols):
    red, pivots, rk = rref(Matrix(QQ, rows, ncols))
    expected, expected_pivots = naive_rref_rational(rows, ncols)
    assert pivots == tuple(expected_pivots) and rk == len(expected_pivots)
    assert red.nrows == len(rows) and red.ncols == ncols
    assert red.rows[:rk] == tuple(tuple(r) for r in expected)
    assert all(x == 0 for r in red.rows[rk:] for x in r)


@st.composite
def rational_matrices(draw):
    """(rows, ncols) over Q: integer, Fraction or huge (> 2^64) entries, zero
    rows and row combinations for rank deficiency, or rows already reduced
    up to scale and order."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("int", "fraction", "huge", "reduced")))
    entry = {
        "int": st.integers(-9, 9),
        "fraction": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        "huge": st.one_of(st.integers(-2, 2), st.integers(-(1 << 80), 1 << 80)),
        "reduced": st.integers(-3, 3),
    }[kind]
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if kind == "reduced":
        red, _ = naive_rref_rational(rows, ncols)
        scale = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9))
        rows = [[draw(scale) * x for x in r] for r in red]
        rows = draw(st.permutations(rows))
    elif rows:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
# rank 2 over Q and mod the lift prime, but rank 1 mod 2^31 - 1
@example(([[1, 1], [1, 1 << 31]], 2))
# pivots (1, 2) mod the lift prime P, (0, 1) over Q: the exact lift spans the
# rows but is not in echelon form, so the next prime must take over
@example(([[_LIFT_PRIME, 1, 0], [0, 1, 1]], 3))
# rank 2 over Q, rank 1 mod P: the lift spans one row only
@example(([[1, 1], [1, 1 + _LIFT_PRIME]], 2))
# entries above 2^63 and a denominator above P: lifted in `object` arrays
@example(([[1 << 64, 1, 0], [1, 2, 3]], 3))
def test_rref_qq_matches_fraction_free_oracle(matrix):
    assert_rref_matches_oracle(*matrix)


@pytest.mark.parametrize(
    "rows, line",
    [
        # the image mod P, (1, 1), reconstructs at the first digit but
        # fails A N = 0; the lift goes on to (1 + P, 1)
        ([[1, -1 - _LIFT_PRIME]], [1 + _LIFT_PRIME, 1]),
        # rank 1 mod P, 2 over Q: the next prime lifts
        ([[1, 1, 1], [1, 1 + _LIFT_PRIME, 1 + 2 * _LIFT_PRIME]], [1, -2, 1]),
        # an entry beyond int64: `object` arrays throughout
        ([[1 << 64, 1], [0, 0]], [1, -(1 << 64)]),
    ],
)
def test_null_line_is_the_kernel_over_q(rows, line):
    n = len(line)
    prim = [{c: x for c, x in enumerate(r) if x} for r in rows]
    (lead,), off, nums, den = linalg._null_space(prim, n)
    vec = [0] * n
    vec[lead] = den
    for c, x in zip(off, nums):
        vec[c] = -x
    assert any(vec) and all(x * line[0] == y * vec[0] for x, y in zip(vec, line))


@pytest.mark.parametrize("what", ["rref", "kernel", "lambda"])
def test_rational_results_make_one_elimination_per_prime(monkeypatch, what):
    # the rref of a dense cubic's J_5 rows, the kernel of its J_3 rows and
    # its lambda over Q each eliminate [A^T | I] once, mod the lift prime,
    # and none goes through the public rref or kernel
    f = random_poly(QQ, SeedStream(child_seed(20260101, 3)), 5, 3, 10)
    apolarity._socle_functional.cache_clear()
    milnor_dim(f, 5)  # the sweep's eliminations, which lambda reads, done first
    calls = {
        "rref": lambda rref=rref: rref(Matrix(QQ, jacobian_rows(f, 5), 126))[2] == 125,
        "kernel": lambda kernel=kernel: kernel(Matrix(QQ, jacobian_rows(f, 3), 35)).nrows == 10,
        "lambda": lambda: apolarity._socle_functional(f).degree == 5,
    }
    primes = []

    def eliminate(matrix, ncols, p, eliminate=linalg._eliminate_mod):
        primes.append(p)
        return eliminate(matrix, ncols, p)

    def forbidden(*args, **kwargs):
        raise AssertionError("went through the public rref or kernel")

    monkeypatch.setattr(linalg, "_eliminate_mod", eliminate)
    for mod in (linalg, apolarity, jacobian):  # each module's own binding
        for name in ("rref", "kernel"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    assert calls[what]()
    assert primes == [_LIFT_PRIME]


def test_unlucky_prime_gives_way_once_its_lift_solves_the_independent_rows(monkeypatch):
    # special_q + P*Fermat, P the lift prime: J_5 loses rank mod P, so the
    # lift at P solves the rows independent mod P and then fails another
    # row, long before the Hadamard bound (about 380 digits), and the next
    # prime lifts the same rref
    f = special_q(QQ, 4, 3) + fermat_form(QQ, 5, 3).scale(_LIFT_PRIME)
    digits, padic = {}, linalg._padic_images

    def count_digits(x, p, system):
        for image in padic(x, p, system):
            digits[p] = digits.get(p, 0) + 1
            yield image

    monkeypatch.setattr(linalg, "_padic_images", count_digits)
    jacobian_graded.cache_clear()
    basis = jacobian_graded(f, 5).basis
    assert len(digits) == 2 and digits[_LIFT_PRIME] <= 60
    rows = jacobian_rows(f, 5)
    expected, _ = naive_rref_rational(rows, 126)
    assert basis.rows == tuple(tuple(r) for r in expected)


def test_lift_prime_is_prime_and_keeps_int64_digits():
    # the lift's int64 digits need rk * P^2 < 2^63 for the ranks it meets
    # (the largest rational rref in the library has 210 columns), and the
    # modular image of the eliminator runs in int64 below 2^31
    assert is_prime(_LIFT_PRIME) and _LIFT_PRIME < 1 << 26
    assert 2048 * _LIFT_PRIME**2 < 1 << 63


def test_elimination_dtype_follows_the_prime():
    # int32 while (p-1)^2 + p < 2^31, int64 below 2^31, Python ints above;
    # slack = (dtype max - p) // (p-1)^2 updates between reductions
    assert _elimination_dtype(10007) == (np.int32, 21)
    assert _elimination_dtype(20011) == (np.int32, 5)
    assert _elimination_dtype(46337) == (np.int32, 1)
    assert _elimination_dtype(46349)[0] is np.int64
    assert _elimination_dtype(_LIFT_PRIME) == (np.int64, 2048)
    assert _elimination_dtype((1 << 31) - 1) == (np.int64, 2)
    assert _elimination_dtype((1 << 61) - 1) == (object, 1)


@settings(max_examples=50, deadline=None)
@given(rational_matrices())
def test_rref_qq_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    rows, ncols = matrix
    red, pivots, rk = rref(Matrix(QQ, rows, ncols))
    if not rows:
        assert rk == 0
        return
    expected, expected_pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, r)] for r in rows]
    ).rref()
    assert pivots == tuple(expected_pivots)
    assert [list(r) for r in red.rows] == [
        [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(rows))
    ]


def test_rref_qq_on_dense_jacobian_piece_matches_oracle():
    # the 175 x 126 J_5 rows of a dense cubic: rank 125, rref entries of
    # about 300 bits, so the lift needs many primes
    f = random_poly(QQ, SeedStream(child_seed(20260101, 3)), 5, 3, 10)
    rows = jacobian_rows(f, 5)
    assert len(rows) == 175 and len(rows[0]) == 126
    assert_rref_matches_oracle(rows, 126)


def test_lift_reconstructs_the_whole_candidate_once_a_probe_entry_settles(monkeypatch):
    # the J_5 lift of a dense cubic takes over 20 p-adic digits; the whole
    # candidate is reconstructed at the first digit and then only when the
    # probe entry repeats, and the lift ends at most one digit after the
    # first digit whose candidate is the rref
    f = random_poly(QQ, SeedStream(child_seed(20260101, 3)), 5, 3, 10)
    images, attempts = [], []
    padic, reconstruct = linalg._padic_images, linalg._reconstruct

    def record_images(*args):
        for image in padic(*args):
            images.append(image)
            yield image

    def record_attempts(residues, m):
        attempts.append(m)
        return reconstruct(residues, m)

    monkeypatch.setattr(linalg, "_padic_images", record_images)
    monkeypatch.setattr(linalg, "_reconstruct", record_attempts)
    assert rref(Matrix(QQ, jacobian_rows(f, 5), 126))[2] == 125
    assert len(images) > 20 and len(attempts) <= 3
    accepted = reconstruct(*images[-1])
    first = next(i for i, image in enumerate(images) if reconstruct(*image) == accepted)
    assert len(images) - 1 <= first + 1


def test_rref_qq_rank_of_nodal_jacobian_piece(nodal_cubic):
    # one node: J_6 misses exactly one dimension of the 210
    rows = jacobian_rows(nodal_cubic, 6)
    assert len(rows) == 350 and len(rows[0]) == 210
    red, pivots, rk = rref(Matrix(QQ, rows, 210))
    assert rk == 209 == len(pivots)
    assert rref(red)[0] == red


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.sampled_from((None,) + ELIMINATION_PRIMES))
def test_kernel_matches_sympy_nullspace(matrix, p):
    """The kernel against sympy: Matrix.nullspace over Q, the GF(p) domain
    matrix nullspace over F_p; same dimension and the same span."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows, ncols = matrix
    field = QQ if p is None else FieldConfig.prime_field(p)
    ours = kernel(Matrix(field, [[field.coerce(x) for x in r] for r in rows], ncols))
    if p is None:
        null = sympy.Matrix(len(rows), ncols, [x for r in rows for x in r]).nullspace()
        theirs = [[Fraction(int(x.p), int(x.q)) for x in v] for v in null]
    else:
        gf = sympy.GF(p)
        dm = DomainMatrix([[gf(x) for x in r] for r in rows], (len(rows), ncols), gf)
        theirs = [[int(x) % p for x in r] for r in dm.nullspace().to_list()]
    assert ours.nrows == len(theirs)
    assert naive_rank(list(ours.rows) + theirs, field) == ours.nrows


# ---------------------------------------------------------------------------
# the one-rref kernel and the rref-aware span against the routes they replaced


@st.composite
def kernel_matrices(draw):
    """(rows, ncols): an `int_matrices` draw as it is, with zero rows
    inserted, or with the identity appended (full rank, empty kernel)."""
    rows, ncols = draw(int_matrices())
    shape = draw(st.sampled_from(("plain", "zero_rows", "full_rank")))
    if shape == "zero_rows":
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    elif shape == "full_rank":
        rows += [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return rows, ncols


@settings(max_examples=80, deadline=None)
@given(kernel_matrices(), st.sampled_from((None,) + ELIMINATION_PRIMES))
@example(([], 3), None)
@example(([[0, 0, 0]], 3), 10007)
@example(([[1, 2], [3, 4]], 2), None)
def test_kernel_matches_two_rref_oracle(matrix, p):
    rows, ncols = matrix
    field = QQ if p is None else FieldConfig.prime_field(p)
    m = Matrix(field, [[field.coerce(x) for x in r] for r in rows], ncols)
    assert kernel(m) == kernel_by_two_rrefs(m)


def test_span_takes_rows_in_rref_as_they_are(monkeypatch):
    for field in (QQ, FP):
        e = span(field, 4, 1, "x", [[2, 4, 0, 6], [1, 2, 1, 0]])
        calls = []
        rref_ = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or rref_(m))
        assert span(field, 4, 1, "x", e.basis.rows) == e and not calls
        # the same rows with other scalars, ints over Q and unreduced
        # residues over F_p, take the rref to their canonical form
        shift = 0 if field.is_rational else field.modulus
        raw = [[int(x) + shift for x in row] for row in e.basis.rows]
        out = span(field, 4, 1, "x", raw)
        assert out == e and len(calls) == 1
        assert all(type(x) is type(field.zero) for row in out.basis.rows for x in row)
        monkeypatch.undo()
