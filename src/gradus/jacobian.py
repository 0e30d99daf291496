"""Graded pieces of Jacobian and general ideals, Milnor dimensions, and
smoothness certification for hypersurfaces and (cubic, quadric) complete
intersections.

Smoothness of {F=0} is decided by fullness of the degree-(T+1) piece of the
Jacobian ideal, T = nvars*(d-2).  Over the rationals the check first runs
modulo a fixed prime: full rank mod p certifies full rank over the rationals
for integer matrices, so a modular "smooth" verdict is promoted; a modular
deficiency triggers the exact computation.  All ranks are of matrices with
entries from the input field, so rational verdicts are conclusive.

Forms become integer rows in one place, `_by_degree`: for each degree an
`object` array of the coefficient vectors of the nonzero forms, each
rational form scaled to primitive integers on its own, each prime-field
form kept as residues.  The sweep mod p, the point scans, the one zero test
at points (`_zeros_of`), the gradients and the Macaulay rows read that
table; a row m*g of a generator g is g's row scattered through
`poly.product_index` (`_shifted_rows`).

Modular fullness is read off h_k = dim (S/I)_k mod p, degree by degree from
the normal forms of degree k-1 (Lazard, EUROCAL 1983): `_quotient_dims_mod`.
With N_{k-1} the standard monomials (the free columns of the rref of I_{k-1}
in the monomial order) and NF(m) the normal form of a monomial m over them,
I_k = S_1 I_{k-1} + G_k, G_k the span of the degree-k generators, and
S_1 I_{k-1} is spanned by x_j (m - NF(m)) for m not standard.  Let U be the
span of the border B_k = {x_j n : n in N_{k-1}} and phi the projection of S_k
onto U that fixes B_k and sends a monomial M off the border to x_j NF(m) for
one fixed factorization M = x_j m.  Its kernel lies in I_k, so
(S/I)_k = U / phi(I_k), and phi(I_k) is spanned by the relations
phi(x_j m) - x_j NF(m) and by phi(g) for g in G_k.  Every term of phi(M) is
below M, so an element of I_k and its image have the same leading monomial:
the free columns of the rref of the relations are N_k, and h_k is
graded_dim - (rank mod p of the degree-k Macaulay matrix), as a full
elimination would give.  The promotion argument is untouched: h_k = 0 mod p
means the Macaulay matrix has full rank mod p, hence over the rationals.

Every index array of degree k that depends only on the staircase N_(k-1),
not on the values of NF (the structure/values split of Faugere's symbolic
preprocessing, J. Pure Appl. Algebra 139, 1999), is one `_Skeleton`: the
border and the monomials off it, the scatter of x_j NF(m) onto the border,
the units, and the relation rows as two gathers from the tails.  It is
memoized on (nvars, k, the bytes of N_(k-1)'s positions) while dim S_k <=
SKELETON_MEMO_DIM, so the sweeps of dense forms of one shape, which share
their staircases, build it once; a larger degree, used once by a long
sweep, is built and dropped.

Milnor dimensions, hypersurface smoothness and the socle functional over
F_p read one record per projective class, `_milnor_sweep`, cached on
`f.normalized()`.  It holds h_0, ..., h_{T+1} of the partials of F mod p
(DEFAULT_PRIME over the rationals); `ref`, what h_k must equal to be
dim (S/J_F)_k; where h_T = 1, the degree-T normal form as a column
v(m) = the coefficient of NF(m) on the one standard monomial (up to scale
the socle functional mod p: see `apolarity`); over the rationals, the
singular point read off v at degree T+1 (below); and, computed once when
first asked, the smoothness certificate.  The partials' rows are read off
F's own integer gradient (`_partials_table`), each partial made primitive
over Q, reduced over F_p, with no partial built as a Polynomial.
`_quotient_dims_mod` hands out
the table of a degree only when asked and then goes on, so neither v
costs a second sweep or elimination.  The record's `dim` is the one
exactness rule: h_k is dim (S/J_F)_k where it equals ref_k (past T+1 only
when h_{T+1} = 0), and any other degree takes the exact route,
graded_dim - dim J_k by rref.  Over F_p the sweep runs in the field
itself, so ref is hs.  Over the rationals ref_k is h_k where a node or the
degree's normal forms were read off (below), else the smooth reference,
`smooth_reference_dims(n, d)[k]`, then 0 at T+1.  The smooth reference is
a lower bound and h_k an upper one:
- dim_Q (S/J_F)_k <= h_k: the rank of an integer matrix mod p is at most
  its rank over the rationals;
- dim_Q (S/J_F)_k >= ref_k: the degree-k Macaulay matrix of the partials
  has entries linear in F's coefficients, so its rank is at most its rank
  for generic F.  That generic rank is reached on a dense open set of
  forms, which meets the dense open set of smooth ones; there the partials
  form a regular sequence and S/J_F has the complete-intersection series
  ((1 - t^(d-1))/(1 - t))^n (Stanley, Adv. Math. 28, 1978).  At T+1 a
  node read off the sweep gives dim_Q >= 1 (below).

A rational F whose sweep ends in h_{T+1} = 1 is read for its singular
point before any rational elimination, as zeros are read off the dual of
the quotient (Auzinger-Stetter, ISNM 86, 1988; Mourrain, J. Pure Appl.
Algebra 117-118, 1997).  The sweep reads the degree-(T+1) normal form,
v(m) = the coefficient of NF(m) on the one standard monomial, a functional
that spans the annihilator of J_{T+1} mod p.
- Why the read-off almost always succeeds: a singular point P of F over
  Q-bar gives ev_P: m -> m(P), which vanishes on J_{T+1}, and distinct
  points give independent functionals on S_{T+1}.  So h_{T+1} = 1 >=
  dim_Q (S/J_F)_{T+1} leaves at most one singular point; Galois fixes it,
  so it is rational.  Scaled to a primitive integer point, ev_{P mod p} is
  nonzero and vanishes on J_{T+1} mod p, so v is a multiple of it, and
  P_i/P_j = v(x_j^T x_i)/v(x_j^(T+1)) mod p for any j with
  v(x_j^(T+1)) != 0.
- The read-off (`_node_off_sweep`) lifts these ratios by rational
  reconstruction and clears denominators to a primitive integer point.
- Soundness rests on the exact check that F and its partials vanish at
  that point, and on two rank bounds that make the certificate's rank exact
  without an rref: rank_Q J_{T+1} <= target - 1, as ev_P is nonzero and
  vanishes on J_{T+1}, and rank_Q >= rank_p = target - 1.
- The check fails when F is smooth over Q (p divides its discriminant) or
  when a ratio lies beyond reconstruction mod p (a numerator or denominator
  above sqrt(p/2), about 70); the rational rref and the F_7 scan then
  decide as before.
- A node read off the sweep also makes dim_Q (S/J_F)_{T+1} = 1 exact: it
  is ref_{T+1}, so `milnor_dim(f, T+1)` returns it with no rref.

Every other degree k <= T+1 of a rational F where h_k differs from the
smooth reference, the singular forms' degrees, is read off the sweep too:
its normal forms mod p are lifted to Q and checked exactly (Wang, SYMSAC
1981), so an exact rank costs no elimination over Q.
- Column j of the degree's normal-form table, m -> the coefficient of NF(m)
  on the j-th standard monomial, is a functional on S_k that kills J_k mod
  p.  Each column is lifted by rational reconstruction over its own
  denominator (`_lifted_columns`), and `_read_off` checks with one integer
  product that the h_k lifts kill every generator row m*g of J_k exactly.
- Soundness: on N_k the table is the identity, so the lifts are h_k
  independent vectors over Q, and if they kill J_k, rank_Q J_k <=
  graded_dim - h_k.  With rank_Q >= rank_p = graded_dim - h_k this makes
  h_k = dim_Q (S/J_F)_k exact: ref_k is h_k, `milnor_dim` returns it, and
  at T+1 the certificate's rank is target - h_{T+1}.
- Any failure keeps the smooth reference, and that degree takes the rref:
  an entry past reconstruction mod p (a node at large coordinates), a lift
  that does not kill J_k over Q (F smooth over Q but singular mod p), or a
  check whose gathered functionals hold more than MACAULAY_CELLS cells.
- No smooth form has such a degree, and a one-node form has it only at
  T+1, where `_node_off_sweep` reads the node first and keeps its witness.

`ci_smooth` forms the 2x2 minors of the Jacobian matrix of (F, Q) as
integer products of the gradients of F's and Q's rows in the table, the
partials of F' and Q', the primitive integer multiples of F and Q (their
residues over F_p), through `product_index`.  A minor of (F', Q') is a
nonzero rational multiple of the minor of (F, Q); over Q each is divided by
the gcd of its entries, over F_p reduced, and the nonzero ones join F's row
of degree 3.  The sweep, the F_7 scan and the exact check of a witness read
that one table; no minor becomes a Polynomial.

A whole Macaulay matrix is bounded before its first row is built: rows x
columns over all generators above MACAULAY_CELLS raises
BudgetExhaustedError.  So is the number of degrees of a Milnor sweep and of
the smooth reference: T+2 above WORK_BUDGET raises it before the first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbientMismatchError,
    BudgetExhaustedError,
    CharacteristicError,
    NotSmoothError,
    PreconditionError,
    ZeroPolynomialError,
    invariant,
)
from .linalg import (
    CACHE_SIZE,
    DEFAULT_PRIME,
    WORK_BUDGET,
    FieldConfig,
    GradedSubspace,
    Matrix,
    _common_denominator,
    _eliminate_mod,
    _elimination_dtype,
    _integer_matmul,
    _mod,
    _primitive,
    _product_dtype,
    _reconstruct,
    rref,
    span,
)
from .poly import Polynomial, graded_dim, monomial_index, monomial_values, monomials, product_index

DEFAULT_KMAX = 12
DEFAULT_SEARCH_PRIME = 7
# the most cells (rows x columns) a whole Macaulay matrix, every generator's
# rows, may hold: two cells weigh as one point of linalg.WORK_BUDGET.  The
# largest the tests build, the rows of a cubic, a quadric and their ten
# 2x2 Jacobian minors in 5 variables at degree 9, has 2640 x 715 = 1887600
MACAULAY_CELLS = 2 * WORK_BUDGET
# the most cells, points x nvars x monomials, one block of a point scan
# gathers: the F_31 scan of a dense cubic's partials (954305 points) peaked
# at 43 MB resident with WORK_BUDGET cells a block, and at 30.9 MB with this
# sixteenth, against 30.3 MB for a loop over single points (2 cores, Python
# 3.11); smaller blocks peak no lower and run slower
SCAN_CELLS = WORK_BUDGET // 16
# the largest dim S_k whose sweep skeleton (`_skeleton`) is memoized: every
# degree of a cubic threefold's sweep (S_7 has 330 monomials).  Unbounded,
# the memo raised the peak RSS of `ci-smooth --kmax 40` on a singular
# (cubic, quadric) pair, whose large degrees each come once, from 519 to
# 590 MB and its time from 7.6 to 9.4 s (2 cores, Python 3.11)
SKELETON_MEMO_DIM = 1024


@dataclass(frozen=True)
class MilnorProfile:
    """Graded dimensions of S/J_F up to some degree, with T = nvars*(d-2)."""

    nvars: int
    degree: int
    t: int
    dims: tuple

    def as_dict(self) -> dict:
        return {k: d for k, d in enumerate(self.dims)}


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Machine-checkable smoothness evidence.

    verdict is "smooth", "singular", or "inconclusive".  For smooth verdicts
    `degree` is where the ideal is full: T+1 for a hypersurface, and for
    `ci_smooth` the first degree k, at least the largest generator degree,
    with h_k = dim (S/I)_k = 0 as `_quotient_dims_mod` computes it.
    `field_used` is the field of that computation; `promoted` marks
    modular certificates that are valid over the rationals.  A singular
    `ci_smooth` verdict rests on `witness_point`, a zero checked exactly in
    `field_used`; a singular hypersurface verdict rests on an exact rank,
    its witness (if any) a singular point over F_7 named in the note: the
    reduction of the exact rational node where the node is read off the
    sweep (see the module docstring), else the first F_7 zero of F and its
    partials in scan order.
    """

    verdict: str
    degree: int | None = None
    field_used: str = ""
    promoted: bool = False
    witness_point: tuple | None = None
    note: str = ""

    @property
    def is_smooth(self) -> bool:
        return self.verdict == "smooth"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "degree": self.degree,
            "field_used": self.field_used,
            "promoted": self.promoted,
            "witness_point": list(self.witness_point) if self.witness_point else None,
            "note": self.note,
        }


@dataclass(frozen=True)
class EmptinessResult:
    certified: bool
    degree: int | None
    kmax: int
    field_used: str

    def as_dict(self) -> dict:
        return {
            "certified": self.certified,
            "degree": self.degree,
            "kmax": self.kmax,
            "field_used": self.field_used,
        }


# ---------------------------------------------------------------------------
# generator rows


def _primitive_rows(rows: np.ndarray) -> np.ndarray:
    """The nonzero rows of an integer `object` array on monomials(nvars, e),
    each divided by the gcd of its entries and signed as `_primitive` signs
    a form, its last nonzero entry (its smallest monomial) positive."""
    rows = rows[(rows != 0).any(axis=1)]
    last = rows.shape[1] - 1 - (rows[:, ::-1] != 0).argmax(axis=1)
    g = abs(np.gcd.reduce(rows, axis=1))  # one entry reduces to itself
    rows //= np.where(rows[np.arange(len(rows)), last] < 0, -g, g)[:, None]
    return rows


def _by_degree(gens) -> dict:
    """The integer image of the homogeneous forms `gens`: degree e -> an
    `object` array whose rows are the coefficient vectors, on
    monomials(nvars, e), of the nonzero forms of degree e in generator
    order.  A rational form is scaled to primitive integers on its own
    (`_primitive_rows`: the same ideal and zero locus, no denominator to
    vanish mod p); a prime-field form keeps its residues."""
    rows: dict = {}
    rational = False
    for g in gens:
        if not g.is_zero():
            e, rational = g.homogeneous_degree(), g.field.is_rational
            idx, row = monomial_index(g.nvars, e), [0] * graded_dim(g.nvars, e)
            values = _common_denominator(g.terms.values())[0] if rational else g.terms.values()
            for m, v in zip(g.terms, values):
                row[idx[m]] = v
            rows.setdefault(e, []).append(row)
    if rational:
        return {e: _primitive_rows(np.array(r, dtype=object)) for e, r in rows.items()}
    return {e: np.array(r, dtype=object) for e, r in rows.items()}


def _gradient(g: Polynomial) -> np.ndarray:
    """Row i: d/dx_i of g's row in `_by_degree` (its primitive integers, its
    residues over F_p) on monomials(nvars, deg g - 1), read through
    `product_index`."""
    e = g.degree()
    vec = _by_degree([g])[e][0]
    # the coefficient of m in d/dx_i g is (m_i + 1) times that of m*x_i
    return (vec[product_index(g.nvars, 1, e)] * (np.array(monomials(g.nvars, e - 1)) + 1)).T


def _partials_table(f: Polynomial) -> dict:
    """`_by_degree(partials(f))` read off `_gradient(f)`, with no partial
    built as a Polynomial: over Q the rows made primitive
    (`_primitive_rows`), over F_p reduced, zero rows dropped."""
    if f.field.is_rational:
        rows = _primitive_rows(_gradient(f))
    else:
        rows = _gradient(f) % f.field.modulus
        rows = rows[(rows != 0).any(axis=1)]
    return {f.degree() - 1: rows} if len(rows) else {}


def _shifted_rows(vec, nvars: int, e: int, k: int, sparse: bool = False):
    """The coefficient rows of m*g for the monomials m of degree k - e, in
    order, g the degree-e form with coefficient vector `vec`: one
    assignment through `product_index` into a dense `object` array, or,
    with `sparse`, dicts column -> nonzero value."""
    table = product_index(nvars, e, k)
    if sparse:
        nz = np.flatnonzero(vec)
        return [dict(zip(cols, vec[nz].tolist())) for cols in table[:, nz].tolist()]
    rows = np.zeros((len(table), graded_dim(nvars, k)), dtype=object)
    rows[np.arange(len(table))[:, None], table] = vec
    return rows


def _multiplication_matrix(g: Polynomial, target: GradedSubspace, src=None) -> Matrix:
    """Multiplication by g into S_k / target, k = target.degree: column s
    holds the complement coordinates of m_s*g reduced modulo target, for
    the monomials m_s of degree k - deg g (all, or those indexed by src)."""
    e = g.homogeneous_degree()
    rows = _shifted_rows(np.array(g.coeff_vector(e), dtype=object), g.nvars, e, target.degree)
    if src is not None:
        rows = rows[list(src)]
    comp = target.complement_columns
    cols = [[resid[c] for c in comp] for resid in map(target.reduce, rows)]
    return Matrix(g.field, cols, len(comp)).transpose()


def _integer_rows(gens, k: int, sparse: bool = False):
    """The rows spanning the degree-k piece of the ideal of `gens`: the
    `_shifted_rows` of every row of `_by_degree(gens)` of degree <= k, so
    each is primitive over Q, as one `object` array (with `sparse`, a list
    of dicts).  BudgetExhaustedError before the first row when the whole
    matrix, sum over the rows g of dim S_(k - deg g) x dim S_k, holds more
    than MACAULAY_CELLS cells.
    """
    nvars, n = gens[0].nvars, graded_dim(gens[0].nvars, k)
    vecs = [(e, vec) for e, rows in _by_degree(gens).items() if e <= k for vec in rows]
    cells = sum(graded_dim(nvars, k - e) for e, _ in vecs) * n
    if cells > MACAULAY_CELLS:
        raise BudgetExhaustedError(f"the degree-{k} Macaulay rows have {cells} cells, "
                                   f"above the work budget of {MACAULAY_CELLS}")
    rows = [r for e, vec in vecs for r in _shifted_rows(vec, nvars, e, k, sparse)]
    return rows if sparse else np.array(rows, dtype=object).reshape(-1, n)


def projective_points(nvars: int, p: int):
    """Every point of projective (nvars-1)-space over F_p, first nonzero
    coordinate 1, in a fixed order; BudgetExhaustedError before the first
    when there are more than WORK_BUDGET of them."""
    count = (p**nvars - 1) // (p - 1)
    if count > WORK_BUDGET:
        raise BudgetExhaustedError(f"projective {nvars - 1}-space over F_{p} has {count} points, "
                                   f"above the work budget of {WORK_BUDGET}")
    for pivot in range(nvars):
        for tail in itertools.product(range(p), repeat=nvars - pivot - 1):
            yield (0,) * pivot + (1,) + tail


def _require_same_ring(f: Polynomial, q: Polynomial, what: str):
    if not q.is_homogeneous():
        raise PreconditionError(f"{what} must be homogeneous")
    if q.nvars != f.nvars or q.field != f.field or q.family != f.family:
        raise AmbientMismatchError(f"F and {what} live in different rings")


def _require_homogeneous(p: Polynomial, what: str) -> int:
    if p.is_zero():
        raise ZeroPolynomialError(f"{what} must be nonzero")
    if not p.is_homogeneous():
        raise PreconditionError(f"{what} must be homogeneous")
    return p.degree()


# ---------------------------------------------------------------------------
# Jacobian ideal pieces and Milnor dimensions

@lru_cache(maxsize=CACHE_SIZE)
def partials(f: Polynomial) -> tuple:
    """The first partials of F, d/dx_0 F, ..., d/dx_{nvars-1} F, built once
    per form."""
    return tuple(f.partial(i) for i in range(f.nvars))


@lru_cache(maxsize=CACHE_SIZE)
def jacobian_graded(f: Polynomial, k: int) -> GradedSubspace:
    """Degree-k piece of the ideal of first partials, canonical basis."""
    _require_homogeneous(f, "F")
    return span(f.field, f.nvars, k, f.family, _integer_rows(partials(f), k))


@dataclass(frozen=True)
class _MilnorSweep:
    """One sweep of a normalized F of degree >= 1 (see the module docstring):
    hs = (h_0, ..., h_{T+1}) mod p of its partials; ref, what h_k must equal
    to be dim (S/J_F)_k (hs itself over F_p; over the rationals h_k where
    a node was read off, or where the degree's normal forms, lifted to Q,
    kill J_k exactly, else the smooth reference, 0 at T+1); socle, with
    h_T = 1, the degree-T normal form v(m) = NF(m) on the one standard
    monomial, which spans the annihilator of J_T mod p; node, over the
    rationals with h_{T+1} = 1, the singular point that `_node_off_sweep`
    reads off the degree-(T+1) normal forms.  Each is None otherwise.
    A verified read-off is exact: the h_k lifts are independent
    (the identity on N_k), so they bound rank_Q J_k from above, and
    rank_Q >= rank_p bounds it from below."""

    f: Polynomial
    hs: tuple
    ref: tuple
    socle: tuple | None
    node: tuple | None

    def dim(self, k: int) -> int | None:
        """dim (S/J_F)_k where the sweep makes it exact, else None; past T+1
        the last h decides only when it is 0."""
        j = min(k, len(self.hs) - 1)
        return self.hs[j] if self.hs[j] == self.ref[j] and (j == k or self.hs[j] == 0) else None

    @cached_property
    def certificate(self) -> SmoothnessCertificate:
        """`is_smooth_hypersurface` of the class: certified when h_{T+1} = 0
        mod p."""
        f, node, t1 = self.f, self.node, len(self.hs) - 1
        nvars, field = f.nvars, f.field
        target = graded_dim(nvars, t1)
        field_used = f"fp:{DEFAULT_PRIME if field.is_rational else field.modulus}"
        if self.hs[t1] == 0:
            return SmoothnessCertificate(
                "smooth", t1, field_used, field.is_rational,
                note="modular fullness promoted to a rational certificate" if field.is_rational
                else "full Jacobian rank; certifies every integer lift",
            )
        if not field.is_rational:
            return SmoothnessCertificate(
                "inconclusive", t1, field_used, False,
                note="modular rank deficiency; no rational lift available",
            )
        # h_(T+1) is exact where a node or the verified normal forms were
        # read off the sweep (module docstring); elsewhere the rational rank
        # decides
        exact = self.dim(t1)
        rk = (target - exact if exact is not None
              else rref(Matrix(field, _integer_rows(partials(f), t1), target))[2])
        if rk == target:
            return SmoothnessCertificate("smooth", t1, "rational", False)
        s, witness = DEFAULT_SEARCH_PRIME, None
        if nvars <= 5 and node:  # the node mod s, first nonzero coordinate 1
            lead = pow(next(c for c in node if c % s), -1, s)
            witness = tuple(c * lead % s for c in node)
        elif nvars <= 5:
            witness = next(_common_zeros_mod({**_partials_table(f), **_by_degree([f])}, nvars, s), None)
        return SmoothnessCertificate(
            "singular", t1, "rational", False, witness,
            note=(
                f"Jacobian rank {rk} < {target} at degree {t1}"
                + (f"; singular point found over F_{s}" if witness else "")
            ),
        )


def _require_sweep_degrees(nvars: int, d: int):
    """BudgetExhaustedError when a sweep to T+1, T = nvars*(d-2), would walk
    its T+2 degrees past WORK_BUDGET of them."""
    degrees = nvars * (d - 2) + 2
    if degrees > WORK_BUDGET:
        raise BudgetExhaustedError(f"a degree-{d} form in {nvars} variables sweeps {degrees} degrees, "
                                   f"above the work budget of {WORK_BUDGET}")


@lru_cache(maxsize=CACHE_SIZE)
def _milnor_sweep(f: Polynomial) -> _MilnorSweep:
    """The `_MilnorSweep` of a normalized F of degree >= 1."""
    d, rational = f.degree(), f.field.is_rational
    _require_sweep_degrees(f.nvars, d)
    p = DEFAULT_PRIME if rational else f.field.modulus
    t1 = max(f.nvars * (d - 2) + 1, 0)
    smooth = (*(smooth_reference_dims(f.nvars, d) if d >= 2 else ()), 0)
    partial_rows = _partials_table(f)
    sweep = _quotient_dims_mod(partial_rows, f.nvars, p)
    hs, ref, socle, node = [], [], None, None
    for k, h in itertools.islice(sweep, t1 + 1):
        # the normal forms are read at T where h_T = 1, and over Q wherever
        # h_k exceeds the smooth reference
        at_socle, inexact = k == t1 - 1 and h == 1, rational and h != smooth[k]
        nf = sweep.send(True) if at_socle or inexact else None
        if at_socle:
            socle = tuple(nf[:, 0].tolist())
        if inexact and k == t1 and h == 1:
            node = _node_off_sweep(f, nf[:, 0].tolist(), t1)
        exact = inexact and (node or _read_off(partial_rows, f.nvars, k, nf, p))
        hs.append(h)
        ref.append(h if exact else smooth[k])
    return _MilnorSweep(f, tuple(hs), tuple(ref if rational else hs), socle, node)


def _lifted_columns(nf: np.ndarray, p: int):
    """The columns of a normal-form table mod p as integer columns, each
    lifted by rational reconstruction over its own denominator
    (`_reconstruct`), as one int64 or `object` array; None where a column
    does not lift.  A column whose balanced residues are all within the
    reconstruction bound is its own lift, as `_reconstruct` would return it
    (each such residue reconstructs with denominator 1)."""
    lifted = np.where(2 * nf > p, nf - p, nf).astype(np.int64)
    bound = math.isqrt((p - 1) // 2)
    far = np.flatnonzero((abs(lifted) > bound).any(axis=0))
    if len(far):
        lifted = lifted.astype(object)
    for j in far:
        nums, _ = _reconstruct(nf[:, j].tolist(), p)
        if len(nums) < len(nf):
            return None
        lifted[:, j] = nums
    return lifted


def _read_off(partial_rows: dict, nvars: int, k: int, nf: np.ndarray, p: int) -> bool:
    """Whether the sweep's degree-k normal forms `nf` of a rational F make
    h_k = dim_Q (S/J_F)_k (module docstring): their columns lift
    (`_lifted_columns`) to functionals w that kill every generator row m*g
    of J_k exactly, g a row of F's primitive partials of degree e
    (`partial_rows`, its `_partials_table`).  As (m*g) . w = sum_c g[c]
    w[m*c] over the monomials c of degree e, the check is one product of
    those rows with w gathered through `product_index(nvars, e, k)`
    (`_integer_matmul`: int64 while each of its sums fits, `object`
    otherwise), and J_k's rows are never built.  False, leaving the degree
    to the rational rref, when the gathered w would hold more than
    MACAULAY_CELLS cells."""
    (e, gens), = partial_rows.items()
    table = product_index(nvars, e, k)
    if table.size * nf.shape[1] > MACAULAY_CELLS:
        return False
    w = _lifted_columns(nf, p)
    if w is None:
        return False
    return not _integer_matmul(gens, w[table]).any()


def milnor_dim(f: Polynomial, k: int) -> int:
    """dim (S/J_F)_k, off the sweep of F's class where exact, else by rref."""
    d = _require_homogeneous(f, "F")
    dim = _milnor_sweep(f.normalized()).dim(k) if d >= 2 and k >= 0 else None
    return graded_dim(f.nvars, k) - jacobian_graded(f, k).dim if dim is None else dim


def milnor_profile(f: Polynomial) -> MilnorProfile:
    """dim (S/J_F)_k for k = 0, ..., max(T, 0), T = nvars*(d-2); for smooth F
    these are `smooth_reference_dims`, and S/J_F vanishes above T."""
    d = _require_homogeneous(f, "F")
    t = f.nvars * (d - 2)
    return MilnorProfile(f.nvars, d, t, tuple(milnor_dim(f, k) for k in range(max(t, 0) + 1)))


def smooth_reference_dims(nvars: int, d: int) -> list:
    """Coefficients of (1-t^(d-1))^nvars / (1-t)^nvars up to T = nvars*(d-2)."""
    if d < 2:
        raise PreconditionError("need degree >= 2")
    _require_sweep_degrees(nvars, d)
    n = nvars - 1
    t = nvars * (d - 2)
    out = []
    for k in range(t + 1):
        total = 0
        for j in range(nvars + 1):
            r = k - j * (d - 1)
            if r < 0:
                break
            total += (-1) ** j * math.comb(nvars, j) * math.comb(n + r, n)
        out.append(total)
    invariant(out == out[::-1], "reference dimensions are not symmetric")
    return out


# ---------------------------------------------------------------------------
# smoothness of a hypersurface

def _balanced_lift(point, p: int) -> tuple:
    """The integer point with coordinates in (-p/2, p/2) congruent to an F_p point."""
    return tuple(c - p if 2 * c > p else c for c in point)


def _zeros_of(forms: dict, points, p: int | None = None) -> np.ndarray:
    """The mask of the rows of the 2-D array `points` where every form of
    the table `forms` (`_by_degree`) vanishes: one product of
    `monomial_values` with the rows of each degree, mod p through
    `_matmul_mod` (coordinates below p in absolute value), or exactly when
    p is None (int or Fraction coordinates)."""
    zero = np.ones(len(points), dtype=bool)
    for d, rows in forms.items():
        values = monomial_values(points, d, p)
        prod = values @ rows.T if p is None else _matmul_mod(values, rows.T % p, p, values.dtype)
        zero &= (prod == 0).all(axis=1)
    return zero


def _common_zeros_mod(forms: dict, nvars: int, p: int, q: int | None = None):
    """The points of `projective_points(nvars, p)` where every form of the
    table `forms` vanishes, in that order, block by block through
    `_zeros_of`.  q is the forms' field: None over Q, whose rows are read
    mod p at the points; p itself; or another prime, whose residues are read
    at the points' balanced lifts mod q, an exact zero with small
    coordinates."""
    widest = max((rows.shape[1] for rows in forms.values()), default=1)
    points, size = projective_points(nvars, p), max(SCAN_CELLS // (nvars * widest), 1)
    while block := list(itertools.islice(points, size)):
        pts = np.array(block, dtype=np.int64)
        if q not in (None, p):
            pts = np.where(2 * pts > p, pts - p, pts)
        yield from itertools.compress(block, _zeros_of(forms, pts, q or p))


def is_smooth_hypersurface(f: Polynomial) -> SmoothnessCertificate:
    """Smooth iff the Jacobian ideal is full in degree T+1.

    Rational inputs always get a conclusive smooth/singular verdict; prime
    field inputs get smooth (which certifies every integer lift) or
    inconclusive.  Both first decide fullness modulo a prime, DEFAULT_PRIME
    over the rationals and the field's own modulus over F_p, in the sweep of
    F's class.  Ranks and the witness scan read F and its partials up to
    scale, so the certificate is the `certificate` of that sweep, cached
    with it on `f.normalized()`.
    """
    d = _require_homogeneous(f, "F")
    if d < 1:
        raise PreconditionError("constant polynomial defines no hypersurface")
    if not f.field.is_rational and f.field.modulus <= d:
        raise CharacteristicError(f"smoothness check at degree {d} needs p > {d}")
    return _milnor_sweep(f.normalized()).certificate


def _node_off_sweep(f: Polynomial, v: list, t1: int):
    """The singular point P of a rational F that v, the sweep's degree-t1
    normal-form functional, names when it is ev_P mod p up to scale: read at
    x_j^t1 and x_j^(t1-1)*x_i, lifted by rational reconstruction, scaled to
    a primitive integer tuple, and returned only if F and its partials
    vanish at it exactly; None otherwise."""
    n, p = f.nvars, DEFAULT_PRIME
    idx = monomial_index(n, t1)

    def at(j, i):  # v(x_j^(t1-1) * x_i)
        return v[idx[tuple((t1 - 1) * (a == j) + (a == i) for a in range(n))]]

    j = next((j for j in range(n) if at(j, j)), None)
    ratios = [at(j, i) * pow(at(j, j), -1, p) % p for i in range(n)] if j is not None else []
    nums, _ = _reconstruct(ratios, p)
    if not ratios or len(nums) < n:  # v(x_j^t1) = 0 for every j, or a ratio past reconstruction
        return None
    point = tuple(_primitive(dict(enumerate(nums))).values())
    exact = _zeros_of({**_by_degree([f]), **_partials_table(f)}, np.array([point], dtype=object))[0]
    return point if exact else None


def require_smooth(f: Polynomial) -> SmoothnessCertificate:
    """The smoothness certificate of F; NotSmoothError unless it says smooth."""
    cert = is_smooth_hypersurface(f)
    if not cert.is_smooth:
        raise NotSmoothError(
            f"operation requires a smooth-certified form (verdict: {cert.verdict})"
        )
    return cert


# ---------------------------------------------------------------------------
# general graded ideals and projective emptiness


def _generators(generators) -> list:
    """The generators as a list: nonempty, nonzero, homogeneous, one ring."""
    gens = list(generators)
    if not gens:
        raise PreconditionError("need at least one generator")
    ring = (gens[0].nvars, gens[0].field, gens[0].family)
    for g in gens:
        if (g.nvars, g.field, g.family) != ring:
            raise AmbientMismatchError("generators live in different rings")
        _require_homogeneous(g, "generator")
    return gens


def ideal_graded(generators, k: int) -> GradedSubspace:
    """Degree-k piece of the ideal generated by homogeneous polynomials."""
    gens = _generators(generators)
    g = gens[0]
    return span(g.field, g.nvars, k, g.family, _integer_rows(gens, k))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int, dtype) -> np.ndarray:
    """a @ b mod p for arrays of residues, as `dtype`: summed in int64 while
    p < 2^31 and a.shape[1] products of two residues cannot reach 2^63, in
    Python ints otherwise (`_product_dtype`)."""
    wide = _product_dtype(a.shape[1], p)
    return _mod(a.astype(wide) @ b.astype(wide), p).astype(dtype)


class _Skeleton(NamedTuple):
    """The index arrays of sweep degree k that depend only on nvars, k and
    the staircase N_(k-1) (`_skeleton`), each read-only."""

    border: np.ndarray  # B_k, as positions in monomials(nvars, k)
    off: np.ndarray  # the monomials off the border
    nonstd: np.ndarray  # the monomials m_i of degree k-1 not in N_(k-1)
    scatter: np.ndarray  # [j, s]: the column of x_j * N_(k-1)[s] in tails
    plus: np.ndarray  # relation rows: tails[plus] - tails[minus] + unit
    minus: np.ndarray
    unit: np.ndarray  # border column of the unit of each of the first rows
    refs: np.ndarray  # the tails row that is phi of each monomial off the border


@lru_cache(maxsize=CACHE_SIZE)
def _skeleton(nvars: int, k: int, std: bytes) -> _Skeleton:
    """The `_Skeleton` of degree k >= 1 over the staircase N_(k-1), given
    by the bytes of its positions in monomials(nvars, k-1) as intp.  tails
    has one row i * nvars + j = x_j * NF(m_i) on the border per nonstandard
    m_i and variable j, and then one zero row.  Memoized; the sweep calls
    `_skeleton.__wrapped__` above SKELETON_MEMO_DIM."""
    std = np.frombuffer(std, np.intp)
    size = graded_dim(nvars, k)
    table = product_index(nvars, 1, k)
    in_border = np.zeros(size, bool)
    in_border[table[std]] = True
    border, off = np.flatnonzero(in_border), np.flatnonzero(~in_border)
    pos = np.zeros(size, np.intp)
    pos[border] = np.arange(len(border))
    is_std = np.zeros(len(table), bool)
    is_std[std] = True
    nonstd = np.flatnonzero(~is_std)
    scatter = np.arange(nvars)[:, None] * len(border) + pos[table[std]].T
    leads = table[nonstd].ravel()
    # a lead off the border takes one of its rows as the reference phi(lead);
    # which one does not matter, N_k and NF are canonical
    ref = np.zeros(size, np.intp)
    ref[leads] = np.arange(len(leads))
    on = in_border[leads]
    others = np.flatnonzero(~on & (ref[leads] != np.arange(len(leads))))
    # unit - x_j NF(m) for a lead on the border, phi(lead) - x_j NF(m) off it
    plus = np.concatenate([np.full(np.count_nonzero(on), len(leads)), ref[leads[others]]])
    minus = np.concatenate([np.flatnonzero(on), others])
    skeleton = _Skeleton(border, off, nonstd, scatter, plus, minus, pos[leads[on]], ref[off])
    for a in skeleton:
        a.flags.writeable = False
    return skeleton


def _relations(sk: _Skeleton, nf: np.ndarray, nvars: int, p: int) -> tuple:
    """(refs, relations) of the degree of `sk` from the normal-form table
    `nf` of the degree before: phi of each monomial off the border, and the
    relation rows mod p, each a row of tails minus another plus its unit.
    tails itself goes on return, before the elimination."""
    tails = np.zeros((len(sk.nonstd) * nvars + 1, len(sk.border)), nf.dtype)
    tails[:-1].reshape(len(sk.nonstd), nvars * len(sk.border))[:, sk.scatter] = nf[sk.nonstd][:, None]
    relations = tails[sk.plus]
    relations -= tails[sk.minus]
    relations[np.arange(len(sk.unit)), sk.unit] += 1
    return tails[sk.refs], _mod(relations, p)


def _quotient_dims_mod(forms: dict, nvars: int, p: int):
    """Yield (k, h_k) for k = 0, 1, 2, ..., h_k = dim (S/I)_k mod p for the
    ideal I of the table `forms` (`_by_degree`) in nvars variables, its
    degree-k generator rows read mod p, from the normal forms of degree k-1;
    see the module docstring.  Once h_k = 0 every later h is 0.
    `send(True)` in place of the next `next` returns the normal-form table
    of the degree just yielded (h > 0), row m the coordinates of NF(m) over
    N_k mod p, and the sweep goes on at the `next` after it; the table of
    the last degree a caller reads is built only if it is sent for."""
    dtype = _elimination_dtype(p)[0]
    for k in itertools.count():
        size = graded_dim(nvars, k)
        if k == 0:
            border, off = np.arange(1), np.arange(0)
            refs = relations = np.zeros((0, 1), dtype)
        else:
            build = _skeleton if size <= SKELETON_MEMO_DIM else _skeleton.__wrapped__
            sk = build(nvars, k, std.tobytes())
            border, off = sk.border, sk.off
            refs, relations = _relations(sk, nf, nvars, p)
        if k in forms:
            rows = (forms[k] % p).astype(dtype)
            on_border = _mod(rows[:, border] + _matmul_mod(rows[:, off], refs, p, dtype), p)
            relations = np.concatenate([relations, on_border])
        a, pivots = _eliminate_mod(relations, len(border), p)
        h = len(border) - len(pivots)
        keep = yield k, h
        if h == 0:
            yield from ((j, 0) for j in itertools.count(k + 1))
            return
        # N_k and the normal form of every degree-k monomial over it
        is_free = np.ones(len(border), bool)
        is_free[pivots] = False
        free, pivots = np.flatnonzero(is_free), np.array(pivots, np.intp)
        rref_free = a[: len(pivots)][:, free]
        del a, relations  # one array, eliminated in place: not kept into the next degree
        std = border[free]
        nf = np.zeros((size, h), dtype)
        nf[std, np.arange(h)] = 1
        nf[border[pivots]] = _mod(-rref_free, p)
        nf[off] = _mod(refs[:, free] - _matmul_mod(refs[:, pivots], rref_free, p, dtype), p)
        if keep:
            yield nf


def projective_empty(generators, k_max: int = DEFAULT_KMAX) -> EmptinessResult:
    """Sweep degrees for fullness of the generated ideal.

    Fullness at any degree certifies that the generators have no common
    projective zero (over the complex numbers, for rational inputs: the
    modular accelerator only ever promotes fullness, never deficiency).
    The certificate names the first degree, at least the largest generator
    degree, where h_k = 0 mod p.  A sweep that never fills up is reported as
    inconclusive.
    """
    gens = _generators(generators)
    return _empty(_by_degree(gens), gens[0].nvars, gens[0].field, k_max)


def _empty(forms: dict, nvars: int, field: FieldConfig, k_max: int) -> EmptinessResult:
    """`projective_empty` of the table `forms` of nonzero generators over
    `field`: the sweep mod p up to k_max, from the largest degree on."""
    if k_max < 0:
        raise PreconditionError(f"k_max must be >= 0, got {k_max}")
    p = DEFAULT_PRIME if field.is_rational else field.modulus
    for k, h in itertools.islice(_quotient_dims_mod(forms, nvars, p), k_max + 1):
        if h == 0 and k >= max(forms):
            return EmptinessResult(True, k, k_max, f"fp:{p}")
    return EmptinessResult(False, None, k_max, f"fp:{p}")


# ---------------------------------------------------------------------------
# smoothness of Y = {F = Q = 0}


def require_cubic_quadric(nvars: int, df: int, dq: int = 2):
    """PreconditionError unless the degrees are those of a cubic F and a
    quadric Q in 5 variables, the one configuration of `ci_smooth`."""
    if (nvars, df, dq) != (5, 3, 2):
        raise PreconditionError("expected the cubic/quadric configuration in 5 variables")


def ci_smooth(
    f: Polynomial,
    q: Polynomial,
    k_max: int = DEFAULT_KMAX,
    falsify: bool = True,
) -> SmoothnessCertificate:
    """Jacobian-criterion certificate for the complete intersection {F=Q=0}
    of a cubic F and a quadric Q in 5 variables (any other is rejected).

    The generator set is {F, Q} plus the 2x2 minors of the Jacobian matrix of
    (F, Q); an empty projective zero locus of that system is exactly
    smoothness of Y (as a scheme).  Falsification for small cases scans
    projective space over a small prime field for a common zero.
    """
    df, dq = _require_homogeneous(f, "F"), _require_homogeneous(q, "Q")
    _require_same_ring(f, q, "Q")
    require_cubic_quadric(f.nvars, df, dq)
    field, n = f.field, f.nvars
    # the minors of the primitive integer F and Q (residues over F_q) are
    # integer multiples of those of F and Q with the same primitive rows
    fd, qd = _gradient(f), _gradient(q)
    i, j = np.triu_indices(n, 1)  # the pairs i < j, in order
    minors = np.zeros((len(i), graded_dim(n, 3)), dtype=object)
    np.add.at(minors, (slice(None), product_index(n, 1, 3)),
              fd[i, :, None] * qd[j, None, :] - fd[j, :, None] * qd[i, None, :])
    minors = minors % field.modulus if field.modulus else minors
    minors = minors[(minors != 0).any(axis=1)]
    if field.is_rational:
        minors //= np.gcd.reduce(minors, axis=1)[:, None]
    forms = _by_degree([f, q])
    forms[3] = np.concatenate([forms[3], minors])
    sweep = _empty(forms, n, field, k_max)
    if sweep.certified:
        return SmoothnessCertificate(
            "smooth", sweep.degree, sweep.field_used, field.is_rational,
            note=f"ideal of (F, Q, minors) full at degree {sweep.degree}",
        )
    reason = "; falsification skipped"
    if falsify:
        # a singular verdict needs an exact zero in the input field, with
        # coordinates in [-3, 3]: the lifts of the F_7 zeros, read in the
        # input field (over F_q the scan read the forms there already)
        s = DEFAULT_SEARCH_PRIME
        zeros = list(_common_zeros_mod(forms, n, s, field.modulus))
        lifts = np.array([_balanced_lift(point, s) for point in zeros], dtype=object).reshape(-1, n)
        lifts = lifts if field.is_rational else lifts % field.modulus
        exact = lifts[_zeros_of(forms, lifts, field.modulus)]
        if len(exact):
            return SmoothnessCertificate(
                "singular", None, field.descriptor(), False, tuple(exact[0].tolist()),
                note="common zero of (F, Q, minors), checked exactly in the input field",
            )
        reason = ", no small-field witness"
        if zeros:
            reason = f"; the common zero {zeros[0]} over F_{s} does not lift to an exact zero"
    return SmoothnessCertificate(
        "inconclusive", sweep.kmax, sweep.field_used, False,
        note=f"no fullness up to degree {sweep.kmax}{reason}",
    )
