"""Special nodal forms, singular-point verification, evaluation maps on
finite point sets, defects of linear systems, and the dimension-identity
checker relating Milnor dimensions to defects.

Only reduced point-set singular loci are supported; defect is the corank of
the evaluation map from the degree-k piece to functions on the points.

The evaluation map reads `poly.monomial_values`, the values of all
degree-k monomials at a block of points.  The F_p scan of
`brute_singular_search` and the exact check of `singular_points` read the
integer rows of the partials (`jacobian._by_degree`, `jacobian._gradient`)
through the same values, in one zero test, `jacobian._zeros_of`.  A node
is read off F's own Hessian at the point (see `is_node`), so no affine
chart is built; `Polynomial.evaluate` serves only that one exact point.

Point-set file format: one point per line, comma-separated integers or
rationals, '#' starts a comment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AmbientMismatchError,
    BudgetExhaustedError,
    ParseError,
    PreconditionError,
    RangeError,
)
from .jacobian import _by_degree, _common_zeros_mod, _gradient, _primitive_rows, _zeros_of, milnor_dim
from .jacobian import partials, smooth_reference_dims
from .linalg import DEFAULT_PRIME, WORK_BUDGET, FieldConfig, Matrix, _common_denominator, rank, rank_mod
from .poly import Polynomial, graded_dim, monomial_values


@dataclass(frozen=True)
class PointSet:
    """Distinct projective points, first nonzero coordinate normalized to 1."""

    field: FieldConfig
    nvars: int
    points: tuple

    @classmethod
    def from_raw(cls, field: FieldConfig, nvars: int, rows) -> "PointSet":
        pts = []
        seen = set()
        for row in rows:
            row = [field.coerce(x) for x in row]
            if len(row) != nvars:
                raise AmbientMismatchError(
                    f"point has {len(row)} coordinates, expected {nvars}"
                )
            pivot = next((x for x in row if x != field.zero), None)
            if pivot is None:
                raise PreconditionError("zero vector is not a projective point")
            inv = field.inv(pivot)
            pt = tuple(field.mul(inv, x) for x in row)
            if pt in seen:
                raise PreconditionError(f"repeated point {pt}")
            seen.add(pt)
            pts.append(pt)
        return cls(field, nvars, tuple(pts))

    def __len__(self):
        return len(self.points)


def parse_points(text: str, field: FieldConfig, nvars: int | None = None) -> PointSet:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        coords = []
        for piece in line.split(","):
            piece = piece.strip()
            try:
                coords.append(Fraction(piece))
            except (ValueError, ZeroDivisionError):
                raise ParseError(
                    f"bad coordinate {piece!r} on line {lineno}"
                ) from None
        rows.append(coords)
    if not rows:
        raise ParseError("no points in input")
    if nvars is None:
        nvars = len(rows[0])
    return PointSet.from_raw(field, nvars, rows)


@dataclass(frozen=True)
class DefectReport:
    k: int
    num_points: int
    rank_theta: int
    defect: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "points": self.num_points,
            "rank_theta": self.rank_theta,
            "defect": self.defect,
        }


@dataclass(frozen=True)
class LemmaReport:
    k: int
    holds: bool
    lhs: int
    rhs: int
    reference_dim: int
    defect: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "holds": self.holds,
            "lhs_milnor_dim": self.lhs,
            "rhs": self.rhs,
            "reference_dim": self.reference_dim,
            "defect": self.defect,
        }


# ---------------------------------------------------------------------------
# the special singular forms


def special_q(field: FieldConfig, n: int, d: int) -> Polynomial:
    """The nodal reference form in n+1 variables.

    For d = 3 this is the sum of all squarefree cubic monomials.  The printed
    source for d >= 4 mixes degrees d and d-1, so that branch is rejected
    with a diagnostic instead of guessing intended exponents.  Its C(n+1, 3)
    exponent tuples of n+1 entries are bounded by WORK_BUDGET cells before
    the first is built (BudgetExhaustedError above).
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    if d < 3:
        raise PreconditionError("need d >= 3")
    if d >= 4:
        raise PreconditionError(
            "the d >= 4 reference formula (x_i^(d-2)x_j^2 + x_i^2 x_j^(d-3)) is "
            "inhomogeneous as printed (degrees d and d-1); only d = 3 is supported"
        )
    nvars = n + 1
    cells = math.comb(nvars, 3) * nvars
    if cells > WORK_BUDGET:
        raise BudgetExhaustedError(f"the squarefree cubics in {nvars} variables have {cells} cells, "
                                   f"above the work budget of {WORK_BUDGET}")
    terms = {}
    for combo in itertools.combinations(range(nvars), 3):
        e = [0] * nvars
        for i in combo:
            e[i] = 1
        terms[tuple(e)] = field.one
    return Polynomial(field, nvars, "x", terms)


# ---------------------------------------------------------------------------
# singular points


def singular_points(f: Polynomial, candidates: PointSet) -> PointSet:
    """Subset of candidates where every first partial of F vanishes."""
    if candidates.nvars != f.nvars:
        raise AmbientMismatchError("point length != nvars")
    if candidates.field != f.field:
        raise AmbientMismatchError(f"points over {candidates.field.descriptor()}, "
                                   f"F over {f.field.descriptor()}")
    pts = np.array(candidates.points, dtype=object).reshape(-1, f.nvars)
    verified = itertools.compress(candidates.points, _zeros_of(_by_degree(partials(f)), pts, f.field.modulus))
    return PointSet(candidates.field, candidates.nvars, tuple(verified))


def brute_singular_search(f: Polynomial, p: int) -> PointSet:
    """Scan all of projective space over F_p for common zeros of the
    partials of F mod p, F homogeneous.  A rational F is scaled to
    primitive integers before it is reduced, so no denominator vanishes, and
    the scan reads the partials of that one form (`_gradient`), not each
    partial scaled on its own.  An F over F_q is read in F_q, so q must be
    p: its partials read mod another prime define no singular locus, and
    that input is a PreconditionError."""
    if not f.field.is_rational and f.field.modulus != p:
        raise PreconditionError(
            f"F over {f.field.descriptor()} has no singular locus over F_{p}; "
            f"pass p = {f.field.modulus}"
        )
    d = f.degree()
    forms = {d - 1: _gradient(f)} if d else {}  # a constant's partials vanish everywhere
    return PointSet(FieldConfig.prime_field(p), f.nvars, tuple(_common_zeros_mod(forms, f.nvars, p)))


def is_node(f: Polynomial, point) -> bool:
    """Whether a singular point P of the hypersurface F = 0 is a node: the
    Hessian H of F, its matrix of second partials, has rank nvars - 1 at P.
    This is the criterion of an affine chart: Euler's identity on each d_jF
    gives H(P) P = (d - 1) grad F(P) = 0 over any field, so the row and the
    column of a nonzero coordinate of P are combinations of the others, and
    deleting them leaves that chart's affine Hessian, of the same rank."""
    field = f.field
    point = tuple(field.coerce(x) for x in point)
    if len(point) != f.nvars:
        raise AmbientMismatchError("point length != nvars")
    if not any(point):
        raise PreconditionError("zero vector is not a projective point")
    if f.evaluate(point) != field.zero:
        raise PreconditionError("point does not lie on the hypersurface")
    if any(g.evaluate(point) != field.zero for g in partials(f)):
        raise PreconditionError("point is not singular on the hypersurface")
    hessian = [[g.partial(j).evaluate(point) for j in range(f.nvars)] for g in partials(f)]
    return rank(Matrix(field, hessian, f.nvars)) == f.nvars - 1


# ---------------------------------------------------------------------------
# evaluation maps and defects


def _evaluation_columns(points: PointSet, k: int) -> int:
    """dim S_k, the columns of the degree-k evaluation map on the points;
    BudgetExhaustedError, before the monomials are listed, when points x
    monomials is above WORK_BUDGET."""
    if k < 0:
        raise PreconditionError("degree must be nonnegative")
    ncols = graded_dim(points.nvars, k)
    if len(points) * ncols > WORK_BUDGET:
        raise BudgetExhaustedError(f"the degree-{k} evaluation map on {len(points)} points has "
                                   f"{len(points) * ncols} cells, above the work budget of {WORK_BUDGET}")
    return ncols


def evaluation_matrix(points: PointSet, k: int) -> Matrix:
    """Rows = values of the degree-k monomial basis at each point, by
    `monomial_values`; bounded by `_evaluation_columns`."""
    field, ncols = points.field, _evaluation_columns(points, k)
    pts = np.array(points.points, dtype=object).reshape(len(points), points.nvars)
    return Matrix(field, monomial_values(pts, k, field.modulus).tolist(), ncols)


def defect(points: PointSet, k: int) -> DefectReport:
    """Number of points less the rank of the degree-k evaluation map.  Over
    Q each point is scaled to primitive integers, which scales its row by a
    nonzero power and keeps the rank; their rank mod DEFAULT_PRIME is a
    lower bound, promoted when full, and the exact rank of the integer rows
    decides otherwise.  Over F_p it is the rank of `evaluation_matrix`."""
    field = points.field
    if not field.is_rational:
        r = rank(evaluation_matrix(points, k))
    else:
        ncols, p = _evaluation_columns(points, k), DEFAULT_PRIME
        pts = np.array([_common_denominator(pt)[0] for pt in points.points], dtype=object)
        pts = _primitive_rows(pts.reshape(len(points), points.nvars))
        r = min(len(points), ncols)
        if rank_mod(monomial_values(pts % p, k, p), ncols, p) < r:
            r = rank(Matrix(field, monomial_values(pts, k).tolist(), ncols))
    return DefectReport(k, len(points), r, len(points) - r)


def check_lemma_defect(f: Polynomial, points: PointSet, k: int) -> LemmaReport:
    """Exact check of: dim M(F)_{T-k} = (smooth reference dim at k) + defect_k.

    Valid for 0 <= k <= n*d - 2n - 1 with n = nvars - 1; the range is
    enforced strictly.  `points` must be the verified reduced singular locus.
    """
    d = f.homogeneous_degree()
    n = f.nvars - 1
    upper = n * d - 2 * n - 1
    if not 0 <= k <= upper:
        raise RangeError(f"k = {k} outside the identity's range [0, {upper}]")
    verified = singular_points(f, points)
    if len(verified) != len(points):
        raise PreconditionError("points must all be singular on F")
    t = f.nvars * (d - 2)
    lhs = milnor_dim(f, t - k)
    ref = smooth_reference_dims(f.nvars, d)[k]
    dft = defect(points, k).defect
    rhs = ref + dft
    return LemmaReport(k, lhs == rhs, lhs, rhs, ref, dft)
