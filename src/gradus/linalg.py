"""Exact deterministic linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` values (always lowest terms, positive
denominator) in rational mode and plain int residues in [0, p) in prime-field
mode.  Every operation is a pure function of its inputs; reduced row-echelon
form is the canonical representation throughout, so subspace equality is
literal matrix equality.

Prime-field elimination is `_eliminate_mod`, behind `rref` over F_p,
`rank_mod`, every kernel and the fullness sweeps of
`jacobian._quotient_dims_mod`: rows with distinct leading columns become
pivots in one block, and only the reduced remainder goes through the
Gauss-Jordan loop `_gauss_jordan`, whose reduction mod p is delayed.  The
dtype follows the modulus: int32 while (p-1)^2 + p < 2^31 (p <= 46337),
int64 below `_NUMPY_MOD_LIMIT` = 2^31, Python ints in `object` arrays above.
Below 2^31 a block product runs in int64 while the sum of its own inner
dimension's products fits (`_product_dtype`), whatever the width of the
block; above, it runs on Python ints, as the residues do.

Every exact result over Q (the rref, the kernel, the socle functional) is
the kernel of an integer matrix A, r x n with primitive integer rows,
lifted p-adically (Dixon) from one elimination of [A^T | I_n] mod p per
prime, p = `_LIFT_PRIME` < 2^26 first (`_transposed_elimination`,
`_null_space`).  T A^T = E gives the rows R of A independent mod p, rk =
rank_p(A) of them; the kernel mod p, T[rk:], in rref and led by the
columns K; and M^-1 = T[:rk, off]^T mod p for M = A[R, off], off the
columns not in K.  Were K the leads of the kernel's rref over Q, its basis
would be W_j = e_{K_j} - X[:, j] on off with X = M^-1 A[R, K].  So X is
lifted from X mod p = -T[rk:, off]^T: each digit costs one product with
M^-1 and one exact division, in int64 while rk*p^2 < 2^63 and the entries
of A are small, in `object` arrays otherwise.  After a digit X mod p^k is
rationally reconstructed as N/L, with one common denominator L, and the
candidate W is judged (`_lift`):
- if it does not solve M X = A[R, K] exactly, it was taken too early and
  the lift goes on;
- it is the answer when A W = 0 on every row and each W_j is zero left of
  K_j.  Then the W_j are n - rank_p(A) independent vectors of the kernel
  over Q (each is L at its own K_j and 0 at the other leads), and
  rank_Q(A) >= rank_p(A) for integer A, so they span it; the echelon test
  makes W/L its rref basis;
- otherwise it solves the rows R exactly, so it is X, the one solution
  (M is invertible mod p, hence over Q), yet fails another row or the
  echelon test.  A prime that keeps the rank and the kernel's leads lifts
  to the rref basis, which passes, so p is unlucky: it drops the rank or
  moves a lead, and so divides a nonzero minor of A.  The next prime below
  it takes over at once.
The loop is bounded.  Every minor of A is at most H = prod ||a||_2
(Hadamard), and by Cramer's rule the entries of X are minors of A over
det M, so once p^k > 2*H^2 Wang's reconstruction (unique for |N|, L <=
sqrt(p^k/2)) returns X itself, and a candidate there that does not solve
the rows R is an internal invariant breach.  So one prime takes at most
log_p(2*H^2) + 1 digits, and a product of unlucky primes above H is an
internal invariant breach too.

The rational `rref` is that kernel for A with its columns reversed, read
back (see `rref`), and `kernel` over F_p is T[rk:] itself.  Both are
canonical, and `span` takes rows that are in rref with canonical scalars
as they are, so a kernel's span costs no second elimination.
`rank_mod` gives the rank of an integer matrix mod p: a lower bound on its
rank over Q, which `apolarity._quotient_rank` promotes where its upper
bound is known.

`GradedSubspace.reduce` works on the complement columns only (those led by
no basis row): because the basis is in rref, the residual is zero on every
pivot column, and a call costs dim x |complement| products instead of
dim x ambient.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CharacteristicError,
    PreconditionError,
    invariant,
    require_positive,
)

MASK64 = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15
DEFAULT_PRIME = 10007

# largest modulus for int64 elimination: products must fit in int64
_NUMPY_MOD_LIMIT = 1 << 31

# p-adic lifting prime of the rational rref: the largest prime below 2^26, so
# rk * p^2 < 2^63 for every rank rk <= 2048 and its digits run in int64
_LIFT_PRIME = 67108859

# bound of every memo cache in the library
CACHE_SIZE = 256

# the most work one computation may be estimated to take before it starts,
# in points visited by a scan of projective space over F_p (about a second
# for the partials of a cubic), or in cells, points x monomials, of an
# evaluation map; a larger estimate raises BudgetExhaustedError
WORK_BUDGET = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Coefficient field: exact rationals, or F_p for a prime p."""

    kind: str = "rational"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.modulus is not None:
                raise PreconditionError("rational field takes no modulus")
        elif self.kind == "fp":
            if self.modulus is None or not is_prime(self.modulus):
                raise PreconditionError(
                    f"prime-field modulus must be prime, got {self.modulus}"
                )
        else:
            raise PreconditionError(f"unknown field kind {self.kind!r}")

    @classmethod
    def rationals(cls) -> "FieldConfig":
        return cls("rational")

    @classmethod
    def prime_field(cls, p: int) -> "FieldConfig":
        return cls("fp", p)

    @classmethod
    def parse(cls, text: str) -> "FieldConfig":
        """Parse a CLI field descriptor: "rational" or "fp:<p>"."""
        if text == "rational":
            return cls.rationals()
        if text.startswith("fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise PreconditionError(f"bad field descriptor {text!r}") from None
            return cls.prime_field(p)
        raise PreconditionError(f"bad field descriptor {text!r}")

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def descriptor(self) -> str:
        return "rational" if self.is_rational else f"fp:{self.modulus}"

    # -- scalar arithmetic -------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.is_rational else 0

    @property
    def one(self):
        return Fraction(1) if self.is_rational else 1

    def coerce(self, value):
        """Coerce an int or Fraction into this field."""
        if self.is_rational:
            return Fraction(value)
        p = self.modulus
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise CharacteristicError(
                    f"denominator {value.denominator} vanishes mod {p}"
                )
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

    def add(self, a, b):
        return a + b if self.is_rational else (a + b) % self.modulus

    def mul(self, a, b):
        return a * b if self.is_rational else a * b % self.modulus

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.modulus

    def inv(self, a):
        if self.is_rational:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        return pow(a, -1, self.modulus)

    def pow(self, a, e: int):
        if self.is_rational:
            return Fraction(a) ** e
        return pow(a, e, self.modulus)


def format_scalar(x) -> str:
    """Fixed textual form: "p/q" for non-integers, plain digits otherwise."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)


# ---------------------------------------------------------------------------
# deterministic pseudo-randomness (splitmix64)


def _mix64(z: int) -> int:
    z &= MASK64
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & MASK64
    z ^= z >> 31
    return z


class SeedStream:
    """Splitmix64 stream; bit-identical across platforms and runs."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _MIX) & MASK64
        return _mix64(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (modulo bias < 2^-50 at desk sizes)."""
        if hi < lo:
            raise PreconditionError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


def child_seed(seed: int, index: int) -> int:
    """Derive the sub-seed for trial `index`: mix64(seed XOR (index+1)*GOLDEN)."""
    return _mix64((seed ^ ((index + 1) * _MIX & MASK64)) & MASK64)


# defaults of a seeded random search: its trials and its coefficient bound
DEFAULT_TRIALS = 5
DEFAULT_BOUND = 10


def random_scalar(field: FieldConfig, stream: SeedStream, bound: int):
    """Rational mode: uniform integer in [-bound, bound]; F_p: uniform residue."""
    require_positive(bound=bound)
    if field.is_rational:
        return Fraction(stream.randint(-bound, bound))
    return stream.randint(0, field.modulus - 1)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix with rows as tuples of field scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldConfig, rows: Sequence[Sequence], ncols: int):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            if len(r) != ncols:
                raise PreconditionError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other):
        return isinstance(other, Matrix) and (
            (self.field, self.ncols, self.rows) == (other.field, other.ncols, other.rows))

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.descriptor()})"

    @classmethod
    def identity(cls, field: FieldConfig, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)],
            self.nrows,
        )


# -- primitive integer rows -------------------------------------------------


def _common_denominator(values) -> tuple:
    """(N, L): the int or Fraction values as integers N over their least
    common denominator L, so that N/L = values and N has no common factor
    with L (an int's denominator is 1)."""
    den = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def _primitive(entries: dict) -> dict:
    """Primitive integer multiple of a dict of nonzero int or Fraction
    values with any keys; the value at the smallest key is positive."""
    ints = dict(zip(entries, _common_denominator(entries.values())[0]))
    g = math.gcd(*ints.values())
    if ints and ints[min(ints)] < 0:
        g = -g
    if g != 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


# -- prime-field elimination -------------------------------------------------


def _mod(x, p: int):
    """x mod p in [0, p), in place, for an int or `object` array or view:
    numpy's floor division by a scalar is much faster than its `%`."""
    q = x // p
    q *= p
    x -= q
    return x


def _elimination_dtype(p: int):
    """(dtype, slack) of modular elimination for the prime p.

    int32 while (p-1)^2 + p < 2^31 (p <= 46337), int64 below 2^31, Python
    ints in an `object` array above.  `slack` = (dtype max - p) // (p-1)^2
    is how many rank-1 updates an entry may take unreduced: see
    `_gauss_jordan`.  `object` entries never overflow but grow, so they are
    reduced after every update.
    """
    if p >= _NUMPY_MOD_LIMIT:
        return object, 1
    bits = 32 if (p - 1) ** 2 + p < 1 << 31 else 64
    return (np.int32 if bits == 32 else np.int64), ((1 << bits - 1) - 1 - p) // (p - 1) ** 2


def _gauss_jordan(a, p: int, slack: int) -> list:
    """Gauss-Jordan elimination mod p of an array of residues in [0, p), in
    place: its pivot columns, with the first r rows of `a`, r the rank,
    left as the rref and the rest zero, all reduced to [0, p).

    At pivot column c the pivot row is zero left of c, so the swap, the
    normalisation and the row updates touch only the trailing columns c:,
    and the cost of pivot c is (rows updated) x (ncols - c).

    Reduction is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
    An update subtracts f * x with a factor f and a pivot-row entry x in
    [0, p), so after k updates every entry of the trailing block lies in
    [-k(p-1)^2, p), and reducing it passes through x // p * p >=
    -k(p-1)^2 - p + 1.  Both fit the dtype of `_elimination_dtype` while
    k <= slack.  So only the pivot column is reduced before its nonzero
    test and the pivot row before and after its normalisation, each 1-D
    slice by one `np.remainder` in place; the whole trailing block is
    reduced by `_mod`'s floor division, after `slack` updates and once at
    the end.  With slack 1 (p = 46337 and `object` entries) the updated
    rows are reduced at once, by `_mod`, as nothing may wait.  The
    residues, and so the pivots and the result, are those of an
    elimination that reduces after every update.
    """
    nrows, ncols = a.shape
    pivots = []
    r = pending = 0
    for c in range(ncols):
        if r == nrows:
            break
        column = a[:, c]
        nz = np.remainder(column, p, out=column)[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        pivot_row = a[r, c:]
        np.remainder(pivot_row, p, out=pivot_row)
        pivot_row *= pow(int(pivot_row[0]), -1, p)
        np.remainder(pivot_row, p, out=pivot_row)
        factors = a[:, c].copy()
        factors[r] = 0
        updated = factors.nonzero()[0]
        if updated.size:
            # only the rows with a nonzero factor, gathered: their contiguous
            # copy updates faster than a strided view of the trailing block
            update = np.multiply.outer(factors[updated], pivot_row)
            if slack == 1:  # no delay: reduce just the updated rows
                a[updated, c:] = _mod(a[updated, c:] - update, p)
            else:
                a[updated, c:] -= update
                pending += 1
                if pending == slack:
                    _mod(a[:, c:], p)
                    pending = 0
        pivots.append(c)
        r += 1
    _mod(a, p)
    return pivots


def _reducers(a) -> tuple:
    """(L, F, reducers, others): the columns L that rows lead at and the
    rest F, the first row leading at each of L, and the other nonzero rows.
    No sort, `ufunc.at` or `searchsorted`: each pages in one more numpy
    kernel, about 128 KB resident."""
    nrows, ncols = a.shape
    nonzero = np.ones((nrows, ncols + 1), bool)
    np.not_equal(a, 0, out=nonzero[:, :ncols])
    lead = nonzero.argmax(1)
    nonzero[:] = False
    nonzero[np.arange(nrows), lead] = True
    is_lead = nonzero[:, :ncols].any(0)
    reducers = nonzero[:, :ncols].argmax(0)[is_lead]
    is_other = lead < ncols
    is_other[reducers] = False
    return is_lead.nonzero()[0], (~is_lead).nonzero()[0], reducers, is_other.nonzero()[0]


def _product_dtype(n: int, p: int):
    """The dtype of a product of residue arrays mod p whose sums run over n
    terms: int64 while the residues are fixed-width (p < `_NUMPY_MOD_LIMIT`)
    and max(n, 1) (p-1)^2 < 2^63, Python ints in `object` otherwise, so a
    product of `object` residues is never subtracted into an int64 array."""
    if p >= _NUMPY_MOD_LIMIT:
        return object
    return np.int64 if max(n, 1) * (p - 1) ** 2 < 1 << 63 else object


def _integer_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly for integer arrays (numpy's broadcasting matmul): in
    int64 while every sum, of a.shape[-1] products, fits, in Python ints
    (`object`) otherwise."""
    def height(x):  # the largest |entry|, with no temporary array
        return int(max(x.max(initial=0), -x.min(initial=0)))

    dtype = np.int64 if height(a) * height(b) * a.shape[-1] < 1 << 63 else object
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def _reducer_block(a, leads, free, reducers, p: int, wide):
    """The reducers scaled to lead with 1 and back-substituted, last lead
    first, to the identity on L: their columns F, as `wide`, each
    substituted row reduced by one `np.remainder` in place.
    a[rows[:, None], cols] is C-ordered (a[:, cols] is not), so row updates
    run on contiguous rows."""
    scale = np.array([pow(v, -1, p) for v in a[reducers, leads].tolist()], wide)[:, None]
    upper = _mod(a[reducers[:, None], leads] * scale, p)  # unit upper triangular
    x = _mod(a[reducers[:, None], free] * scale, p)
    np.fill_diagonal(upper, 0)
    for i in upper.any(1).nonzero()[0][::-1]:
        row = x[i]
        row -= upper[i, i + 1 :] @ x[i + 1 :]
        np.remainder(row, p, out=row)
    return x


def _eliminate_mod(rows, ncols: int, p: int):
    """Gauss-Jordan elimination mod p of integer rows (a list, reduced here)
    or of an ndarray of residues (eliminated in place when it has the dtype
    of `_elimination_dtype`): (array, pivots), the array's first rank rows
    the rref and the rest zero.

    Reducers first, the split of F4's linear algebra (Faugere, JPAA 139,
    1999; Faugere and Lachartre, PASCO 2010): the first row at each distinct
    leading column, scaled to lead with 1, and back-substituted to the
    identity on those leads L.  One product reduces the other rows against
    this block, `_gauss_jordan` runs on that remainder's columns F off L, one
    more product clears its pivots in the block, and the rows are sorted by
    pivot.  Exact: a row is zero left of its lead, so subtracting a reducer
    that leads to its right keeps it so; the remainder is zero on L, so its
    pivots are new; the rows are the identity on all pivots and zero left of
    each lead, the unique rref.  Below 2^31 each product runs in int64
    while its own sums fit, len(L) terms for the reducer block, len(new
    pivots) for the clearing, and in `object` above; at p >= 2^31 always in
    `object`, as the residues are (`_product_dtype`).
    """
    dtype, slack = _elimination_dtype(p)
    if isinstance(rows, np.ndarray):
        a = rows.astype(dtype, copy=False)
    else:
        a = np.array([[x % p for x in row] for row in rows], dtype=dtype)
    a = a.reshape(len(rows), ncols)
    if not a.size:  # nothing to eliminate
        return a, []
    leads, free, reducers, others = _reducers(a)
    wide = _product_dtype(len(leads), p)
    x = _reducer_block(a, leads, free, reducers, p, wide)
    rest = a[others[:, None], free].astype(wide, copy=False)
    rest -= a[others[:, None], leads].astype(wide, copy=False) @ x
    rest = _mod(rest, p).astype(dtype, copy=False)
    new = _gauss_jordan(rest, p, slack)
    # the block is cleared on the new pivots; only its columns off them move
    off = np.ones(len(free), bool)
    off[new] = False
    wide = _product_dtype(len(new), p)
    x_new, x = x.take(new, 1).astype(wide, copy=False), x[:, off].astype(wide, copy=False)
    x -= x_new @ rest[: len(new)][:, off].astype(wide, copy=False)
    # rows sorted by pivot column: row at[c] is the one that leads at c
    at = np.zeros(ncols, np.intp)
    at[leads] = at[free[new]] = 1
    pivots = at.nonzero()[0]
    at[pivots] = np.arange(len(pivots))
    a[:] = 0
    a[at[leads][:, None], free[off]] = _mod(x, p)
    a[at[leads], leads] = 1
    a[at[free[new]][:, None], free] = rest[: len(new)]
    return a, pivots.tolist()


def _transposed_elimination(rows, ncols: int, p: int) -> tuple:
    """(R, T, K) of one elimination of [A^T | I_n] mod p, for the r x n
    integer matrix A of `rows`: an ndarray of residues in [0, p), filled in
    with one transposed assignment, or dicts column -> value.

    The elimination gives T A^T = E, T invertible and E the rref of A^T mod
    p.  E's pivot columns are the rows R of A independent mod p, rk =
    rank_p(A) of them.  E[rk:] is zero, so the rows T[rk:] span the kernel
    of A mod p; as rows of an rref they are its rref basis, led by the
    columns K.  E[:rk] is 1 at R_j and 0 at the rest of R, so
    A[R] T[:rk]^T = I, and T[:rk] is zero on K, which the elimination
    cleared: for `off` the columns not in K, M = A[R, off] is invertible
    mod p with M^-1 = T[:rk, off]^T."""
    nrows = len(rows)
    aug = np.zeros((ncols, nrows + ncols), dtype=_elimination_dtype(p)[0])
    if isinstance(rows, np.ndarray):
        aug[:, :nrows] = rows.T
    else:
        for i, r in enumerate(rows):
            aug[list(r), i] = [v % p for v in r.values()]
    np.fill_diagonal(aug[:, nrows:], 1)
    red, pivots = _eliminate_mod(aug, nrows + ncols, p)
    rk = bisect_left(pivots, nrows)
    return pivots[:rk], red[:, nrows:], [c - nrows for c in pivots[rk:]]


# -- rational elimination: one modular image, lifted p-adically -------------


def _lift_primes():
    """_LIFT_PRIME, then the primes below it in descending order, each
    found only when the one before it has proved unlucky."""
    yield _LIFT_PRIME
    yield from filter(is_prime, range(_LIFT_PRIME - 2, 2, -2))


def _over_lift_primes(h2: int, attempt):
    """The first result of attempt(p) that is not None, p from
    `_lift_primes()`.  A prime whose attempt fails is unlucky: it divides
    a nonzero minor of the integer matrix, at most H = sqrt(h2) (Hadamard),
    so a product of failed primes above H is an internal invariant breach."""
    skipped = 1
    for p in _lift_primes():
        found = attempt(p)
        if found is not None:
            return found
        skipped *= p
        invariant(skipped**2 <= h2, "p-adic lift met more unlucky primes than H allows")


def _free_columns(pivots, ncols: int) -> list:
    """The columns 0..ncols-1 that are not pivots, ascending."""
    pset = set(pivots)
    return [c for c in range(ncols) if c not in pset]


def _is_reduced_up_to_scale(rows: list) -> bool:
    """Distinct leading columns, each row zero on the others' leading columns."""
    leads = {min(r) for r in rows}
    return len(leads) == len(rows) and all(sum(c in leads for c in r) == 1 for r in rows)


def _rational_reconstruction(x: int, m: int, bound: int):
    """(n, d) with n = d*x mod m, |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None (Wang's half-extended Euclid; the answer is unique
    when 2*bound^2 < m)."""
    r0, r1, s0, s1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or math.gcd(r1, s1) != 1:
        return None
    return r1, s1


def _reconstruct(residues: list, m: int):
    """Numerators N and one common denominator L with N/L = the longest
    prefix of the residues that reconstructs mod m: all of them when
    len(N) == len(residues).  L runs over the entries: each entry is
    reconstructed as L*x, so once L is the answer's denominator the rest
    lift as integers."""
    bound = math.isqrt((m - 1) // 2)
    den, nums = 1, []
    for x in residues:
        nd = _rational_reconstruction(den * x, m, bound)
        if nd is None or den * nd[1] > bound:
            break
        n, d = nd
        if d != 1:
            den *= d
            nums = [v * d for v in nums]
        nums.append(n)
    return nums, den


def _digit_dtype(a_max: int, m: int, p: int):
    """int64 for the p-adic digits of a system whose matrix has m columns
    and no entry above a_max in absolute value, while m*p^2 < 2^63 and
    a_max*(1 + 2*m*p) < 2^63 (see `_padic_images`), `object` otherwise."""
    return np.int64 if m * p * p < 1 << 63 and a_max * (1 + 2 * m * p) < 1 << 63 else object


def _padic_images(x, p: int, system):
    """X mod p, p^2, p^3, ... as (flat entries, modulus) for an integer
    system M X = B (Dixon), the digit loop of `_null_space`.

    x is X mod p, yielded before system() is called.  That returns (M, B,
    solve), M and B in a dtype of `_digit_dtype`, and solve(r) is a digit d
    with M d = r mod p.  From b = B each step sets b <- (b - M d) / p, an
    exact division, and takes the digit d = solve(b mod p).  With m columns
    of M and no entry of M or B above a_max, |b| stays below 2*m*a_max and
    |b - M d| below a_max*(1 + 2*m*p); solve's products, over at most m
    terms, stay below m*p^2.
    """
    yield x.ravel().tolist(), p
    mat, b, solve = system()
    digit, x, pk = x.astype(mat.dtype), x.astype(object), p
    while True:
        b = (b - mat @ digit) // p
        digit = solve(b % p)
        x = x + digit.astype(object) * pk
        pk *= p
        yield x.ravel().tolist(), pk


def _fraction_row(entries, den: int, ncols: int) -> list:
    """Dense row of Fraction(v, den) at the given (column, v) entries."""
    dense = [Fraction(0)] * ncols
    for c, v in entries:
        if v:
            dense[c] = Fraction(v, den)
    return dense


def _lift(images, h2: int, accept):
    """(N, L), N/L the first of the p-adic `images` that reconstructs and
    that accept(N, L) takes (True), or None once accept rejects one (False):
    p is then unlucky.  accept answers None to a candidate taken too early,
    one that does not yet solve the lifted system, and the lift goes on.
    Past the Hadamard bound (p^k > 2*H^2) the candidate is the exact
    solution, so it reconstructs and accept answers True or False.

    The whole image is reconstructed at the first digit, and after that
    only when one probe entry, the one that stopped the last candidate,
    reconstructs to the same value at two digits running, or once the lift
    is exact.  At the first digit where the candidate is the answer, every
    entry reconstructs to its true value, as the probe does at the next, so
    the lift ends at most one digit later than with a candidate per digit,
    with the same answer."""
    probe = last = None  # the probe entry, and its value at the last digit
    for residues, m in images:
        exact, bound = m > 2 * h2, math.isqrt((m - 1) // 2)
        value = probe is not None and _rational_reconstruction(residues[probe], m, bound)
        if probe is None or exact or value and value == last:
            nums, den = _reconstruct(residues, m)
            verdict = accept(nums, den) if len(nums) == len(residues) else None
            invariant(verdict is not None or not exact,
                      "p-adic lift did not solve its system past the Hadamard bound")
            if verdict is not None:
                return (nums, den) if verdict else None
            if len(nums) < len(residues):  # probe the entry that stopped it
                probe, value = len(nums), None
        last = value


def _integer_matrix(prim: list, ncols: int) -> tuple:
    """(dense rows, H^2, a_max) of integer rows given as dicts column ->
    value: H^2 the squared Hadamard bound, the product of the squared norms
    of the nonzero rows, and a_max the largest absolute entry."""
    dense = [[0] * ncols for _ in prim]
    for row, r in zip(dense, prim):
        for c, v in r.items():
            row[c] = v
    h2 = math.prod(filter(None, (sum(v * v for v in r.values()) for r in prim)))
    return dense, h2, max((abs(v) for r in prim for v in r.values()), default=0)


def _null_space(prim: list, ncols: int) -> tuple:
    """(K, off, N, L): the kernel over Q of the integer matrix A whose rows
    are the dicts column -> value `prim`.  Its rref basis is W_j = e_{K_j}
    - X[:, j] on the columns `off`, X = N/L with N flat by rows.

    One `_transposed_elimination` mod p gives the rows R, the leads K and
    off, and X = M^-1 A[R, K] for M = A[R, off] is lifted p-adically (Dixon)
    from its image -T[rk:, off]^T, each digit through the solver
    M^-1 = T[:rk, off]^T mod p.  A candidate that does not solve
    M X = A[R, K] was taken too early; one that does is X itself, and it is
    the answer when A W = 0 on every row and each W_j is zero left of K_j.
    Otherwise p is unlucky and the next prime takes over (module
    docstring)."""
    int_rows, h2, a_max = _integer_matrix(prim, ncols)

    def attempt(p):
        indep, t, lead = _transposed_elimination(prim, ncols, p)
        rk, off = len(indep), _free_columns(lead, ncols)
        dtype = _digit_dtype(a_max, rk, p)
        sol = t[:rk][:, off].T.astype(dtype)

        def system():  # M X = A[R, K]
            sub = np.array([int_rows[i] for i in indep], dtype).reshape(rk, ncols)
            return sub[:, off], sub[:, lead], lambda r: sol @ r % p

        def accept(nums, den):  # the integer rows L W_j
            w = np.zeros((len(lead), ncols), dtype=object)
            w[:, off] = -np.array(nums, dtype=object).reshape(rk, len(lead)).T
            w[range(len(lead)), lead] = den
            null = w.tolist()

            def kills(i):
                return not any(sum(v * x[c] for c, v in prim[i].items()) for x in null)

            if not all(map(kills, indep)):
                return None
            rest = set(range(len(prim))).difference(indep)
            return all(map(kills, rest)) and not any(any(x[:c]) for c, x in zip(lead, null))

        found = _lift(_padic_images(-t[rk:][:, off].T % p, p, system), h2, accept)
        return found and (lead, off, *found)

    return _over_lift_primes(h2, attempt)


def _primitive_rows(rows) -> list:
    """The nonzero rows of ints or Fractions as primitive integer rows, each
    a dict column -> value."""
    return [r for r in (_primitive({j: x for j, x in enumerate(row) if x}) for row in rows) if r]


def _rref_padic(rows, ncols: int):
    """Rational rref of rows of Fractions or ints; see `rref`.  The rows are
    scaled to primitive integer rows.  Rows reduced up to scale are scaled
    by their leading entries.  Others are read off the kernel of the rows
    with their columns reversed (`_null_space`): its leads are the rref's
    free columns reversed, its `off` the pivots, and its N/L, reversed, the
    rref's complement block, row i of which is row i of the rref on the
    complement columns."""
    prim = _primitive_rows(rows)
    if _is_reduced_up_to_scale(prim):
        prim = sorted(prim, key=min)
        return [_fraction_row(r.items(), r[min(r)], ncols) for r in prim], [min(r) for r in prim]
    last = ncols - 1
    lead, off, nums, den = _null_space([{last - c: v for c, v in r.items()} for r in prim], ncols)
    pivots, comp = [last - c for c in reversed(off)], [last - c for c in reversed(lead)]
    k, nums = len(comp), nums[::-1]
    out = [
        _fraction_row([(pc, den), *zip(comp, nums[i * k : (i + 1) * k])], den, ncols)
        for i, pc in enumerate(pivots)
    ]
    return out, pivots


def rref(m: Matrix):
    """Unique reduced row-echelon form (same shape, zero rows at the bottom):
    (rref matrix, pivot columns, rank).

    Over F_p it is one `_eliminate_mod` of m.  Over Q the rows are scaled to
    primitive integer rows A.  Rows already reduced up to scale and order
    (distinct leading columns, each row zero on the others' leading columns)
    are their own rref once scaled and sorted.  Otherwise the rref is read
    off the kernel's rref basis of A with its columns reversed
    (`_null_space`, exact by the argument of the module docstring).  Let A
    have rref rows e_{p_i} + C_i on its free columns q.  The kernel of A is
    spanned by v_q = e_q - sum_i C_i[q] e_{p_i}, and C_i[q] = 0 for p_i > q,
    so in reversed order v_q leads with 1 at q, is zero on the other free
    columns, and is nonzero elsewhere only on pivot columns right of q: the
    v_q are the kernel's rref basis there.  Its leads are A's free columns
    and its `off` A's pivots, both reversed, and its X, reversed in both
    axes, is C.
    """
    f = m.field
    if f.is_rational:
        dense, pivots = _rref_padic(m.rows, m.ncols)
    else:
        a, pivots = _eliminate_mod(m.rows, m.ncols, f.modulus)
        dense = a[: len(pivots)].tolist()
    while len(dense) < m.nrows:
        dense.append([f.zero] * m.ncols)
    out = Matrix(f, dense, m.ncols)
    return out, tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def rank_mod(int_rows: Sequence[Sequence[int]], ncols: int, p: int) -> int:
    """Rank of an integer matrix reduced mod p.

    `int_rows` is a list of integer rows or an ndarray of residues in
    [0, p), which is left as it is.  Full rank mod p implies full rank over
    the rationals for integer matrices.
    """
    rows = int_rows.copy() if isinstance(int_rows, np.ndarray) else int_rows
    return len(_eliminate_mod(rows, ncols, p)[1])


def _kernel_rows(field: FieldConfig, rows, ncols: int) -> tuple:
    """(the rref basis of the kernel of the matrix of `rows`, its rank):
    over Q the rows are primitive integer dicts column -> value, and the
    basis is W_j = e_{K_j} - X[:, j] on off from `_null_space`; over F_p
    they are residue rows, and the basis is T[rk:] of
    `_transposed_elimination`."""
    if field.is_rational:
        lead, off, nums, den = _null_space(rows, ncols)
        k = len(lead)
        return [_fraction_row([(c, den), *zip(off, (-x for x in nums[j::k]))], den, ncols)
                for j, c in enumerate(lead)], len(off)
    a = np.array(rows, dtype=_elimination_dtype(field.modulus)[0]).reshape(len(rows), ncols)
    indep, t, _ = _transposed_elimination(a, ncols, field.modulus)
    return t[len(indep):].tolist(), len(indep)


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (rref rows) of {v : m @ v = 0}, from one elimination
    of [m^T | I] per prime (`_kernel_rows`).  Over F_p it is T[rk:], the
    I half of the rows of that rref whose m^T half is zero.  Over Q it is
    those rows lifted p-adically, taken only once every row of m kills them
    and they are in echelon form, which with rank_Q >= rank_p makes them the
    rref basis (module docstring).  Their number, ncols - rank, is checked."""
    f, n = m.field, m.ncols
    null, rk = _kernel_rows(f, _primitive_rows(m.rows) if f.is_rational else m.rows, n)
    invariant(len(null) == n - rk, "kernel dimension law violated")
    return Matrix(f, null, n)


# ---------------------------------------------------------------------------
# graded subspaces


@dataclass(frozen=True)
class GradedSubspace:
    """Subspace of the degree-k graded piece, canonical rref basis rows.

    `family` is "x" for the primal variables and "y" for the dual ones; the
    apolarity pairing is the only bridge between the two.  Only `span`
    builds one, so `pivots` are the pivot columns that `reduce` relies on.
    """

    field: FieldConfig
    nvars: int
    degree: int
    family: str
    basis: Matrix
    pivots: tuple

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    @cached_property
    def complement_columns(self) -> tuple:
        """Columns not led by a basis row, ascending."""
        return tuple(_free_columns(self.pivots, self.ambient_dim))

    @cached_property
    def _complement_entries(self) -> tuple:
        """Per basis row, (pivot, ((index into the complement, entry), ...))
        over the row's nonzero complement entries."""
        z = self.field.zero
        comp = self.complement_columns
        return tuple(
            (pc, tuple((j, row[c]) for j, c in enumerate(comp) if row[c] != z))
            for row, pc in zip(self.basis.rows, self.pivots)
        )

    def reduce(self, vec: Sequence) -> list:
        """Residual of vec after clearing pivot coordinates with basis rows.

        In rref every row vanishes on the other rows' pivots, so the
        coefficient of row i is vec[p_i] itself: the residual is zero on the
        pivot columns and vec[c] - sum_i vec[p_i] * row_i[c] on a complement
        column c.  Cost: dim x |complement| products at most, only over
        nonzero vec[p_i] and row_i[c].
        """
        f = self.field
        z = f.zero
        comp = self.complement_columns
        acc = [vec[c] for c in comp]
        for pc, entries in self._complement_entries:
            a = vec[pc]
            if a != z:
                for j, y in entries:
                    acc[j] -= a * y
        if not f.is_rational:
            p = f.modulus
            acc = [x % p for x in acc]
        v = [z] * self.ambient_dim
        for c, x in zip(comp, acc):
            v[c] = x
        return v


def _rref_pivots(field: FieldConfig, rows) -> tuple | None:
    """The pivot columns of rows already in rref with canonical scalars
    (Fractions over Q, residues in [0, p) over F_p), else None: each row
    leads with 1, the leads increase, and each lead column is zero in the
    other rows."""
    p, pivots = field.modulus, []
    for r in rows:
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None or r[lead] != 1 or pivots and lead <= pivots[-1]:
            return None
        pivots.append(lead)
    canonical = all(type(x) is Fraction if p is None else type(x) is int and 0 <= x < p
                    for r in rows for x in r)
    cleared = not any(r[c] for i, r in enumerate(rows) for j, c in enumerate(pivots) if i != j)
    return tuple(pivots) if canonical and cleared else None


def span(field: FieldConfig, nvars: int, degree: int, family: str, vectors) -> GradedSubspace:
    """The subspace the vectors span, in its canonical basis: their rref,
    or the vectors themselves when they are in rref already (a `kernel`,
    say), which costs no elimination."""
    if degree < 0:
        raise PreconditionError(f"degree {degree} is negative")
    ncols = math.comb(nvars - 1 + degree, degree)
    m = Matrix(field, list(vectors), ncols)
    if (pivots := _rref_pivots(field, m.rows)) is None:
        red, pivots, rk = rref(m)
        m = Matrix(field, red.rows[:rk], ncols)
    return GradedSubspace(field, nvars, degree, family, m, pivots)
