"""Perp spaces under the polar pairing, Macaulay socle duality, the
annihilator quadric of a hyperplane, graded colon ideals, and extraction of
the associated cubic.

The socle functional lambda spans the one-dimensional dual of the top graded
piece of the Milnor algebra of a smooth form; every multiplication pairing
here is evaluated through it.  Quotient pieces are represented in the
canonical complement-monomial coordinates (the non-pivot columns of the
Jacobian rref basis), so all outputs are exactly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AmbientMismatchError,
    CharacteristicError,
    DegeneratePairError,
    NotSmoothError,
    PreconditionError,
    ZeroPolynomialError,
    invariant,
)
from .jacobian import jacobian_graded, require_smooth
from .linalg import (
    CACHE_SIZE,
    FieldConfig,
    GradedSubspace,
    Matrix,
    kernel,
    span,
    subspace_le,
)
from .poly import (
    Polynomial,
    graded_dim,
    monomial_index,
    monomials,
    pairing_weight,
    polar_pair,
)


@dataclass(frozen=True)
class SocleFunctional:
    """Normalized linear functional on the top graded piece vanishing on J_F."""

    field: FieldConfig
    nvars: int
    degree: int
    vector: tuple

    def apply_vector(self, vec):
        f = self.field
        total = f.zero
        for a, b in zip(self.vector, vec):
            if a != f.zero and b != f.zero:
                total = f.add(total, f.mul(a, b))
        return total


@dataclass(frozen=True)
class CubicC:
    """Normalized generator of the perp line of a (cubic, quadric) colon."""

    poly: Polynomial
    f: Polynomial
    q: Polynomial


def _pairing_weights(field: FieldConfig, nvars: int, degree: int):
    if not field.is_rational and field.modulus <= degree:
        raise CharacteristicError(
            f"perp at degree {degree} needs characteristic > {degree}"
        )
    return [pairing_weight(field, m) for m in monomials(nvars, degree)]


def perp_graded(e: GradedSubspace, _check: bool = True) -> GradedSubspace:
    """Annihilator of a subspace under the polar pairing, in the dual family."""
    field = e.field
    weights = _pairing_weights(field, e.nvars, e.degree)
    rows = [
        [field.mul(x, w) for x, w in zip(row, weights)]
        for row in e.basis.rows
    ]
    null = kernel(Matrix(field, rows, e.ambient_dim))
    other = "y" if e.family == "x" else "x"
    out = GradedSubspace(field, e.nvars, e.degree, other, null, _pivot_cols(null))
    invariant(
        e.dim + out.dim == e.ambient_dim,
        "perp dimension law failed: dim E + dim E-perp != dim S_k",
    )
    if _check:
        back = perp_graded(out, _check=False)
        invariant(back == e, "perp involution failed")
    return out


def _pivot_cols(m: Matrix) -> tuple:
    pivots = []
    zero = m.field.zero
    for row in m.rows:
        for c, x in enumerate(row):
            if x != zero:
                pivots.append(c)
                break
    return tuple(pivots)


def socle_functional(f: Polynomial) -> SocleFunctional:
    """The unique normalized functional on degree T killing the Jacobian ideal."""
    require_smooth(f)
    return _socle_functional(f)


@lru_cache(maxsize=CACHE_SIZE)
def _socle_functional(f: Polynomial) -> SocleFunctional:
    d = f.homogeneous_degree()
    t = f.nvars * (d - 2)
    jt = jacobian_graded(f, t)
    null = kernel(jt.basis)
    if null.nrows != 1:
        raise NotSmoothError(
            f"socle is {null.nrows}-dimensional at degree {t}; expected 1"
        )
    return SocleFunctional(f.field, f.nvars, t, null.rows[0])


def macaulay_pairing_matrix(f: Polynomial, j: int) -> Matrix:
    """Multiplication pairing of the degree-j and degree-(T-j) quotient pieces.

    Entry (a, b) is lambda(m_a * m_b) for the complement-monomial bases; full
    rank is the duality statement for smooth forms.
    """
    require_smooth(f)
    d = f.homogeneous_degree()
    t = f.nvars * (d - 2)
    if not 0 <= j <= t:
        raise PreconditionError(f"pairing degree {j} outside [0, {t}]")
    lam = socle_functional(f)
    cols_j = jacobian_graded(f, j).complement_columns
    cols_tj = jacobian_graded(f, t - j).complement_columns
    mons_j = monomials(f.nvars, j)
    mons_tj = monomials(f.nvars, t - j)
    idx_t = monomial_index(f.nvars, t)
    rows = []
    for a in cols_j:
        ma = mons_j[a]
        row = []
        for b in cols_tj:
            mb = mons_tj[b]
            prod = tuple(x + y for x, y in zip(ma, mb))
            row.append(lam.vector[idx_t[prod]])
        rows.append(row)
    return Matrix(f.field, rows, len(cols_tj))


def annihilator_quadric(f: Polynomial, g_dual: Polynomial) -> Polynomial:
    """The quadric (unique mod J_{F,2}, canonically normalized) whose socle
    products vanish on the hyperplane of cubics pairing to zero with G."""
    require_smooth(f)
    if g_dual.is_zero():
        raise ZeroPolynomialError("G must be nonzero")
    if g_dual.family == f.family:
        raise PreconditionError("G must live in the dual variable family")
    if g_dual.nvars != f.nvars or g_dual.field != f.field:
        raise AmbientMismatchError("F and G live over different rings")
    d = f.homogeneous_degree()
    if g_dual.homogeneous_degree() != d:
        raise PreconditionError("G must have the same degree as F")

    j3 = jacobian_graded(f, d)
    for row in j3.basis.rows:
        b = Polynomial.from_vector(f.field, f.nvars, f.family, d, row)
        if polar_pair(b, g_dual) != f.field.zero:
            raise PreconditionError("G is not in the perp of the Jacobian piece")

    field = f.field
    nvars = f.nvars
    # hyperplane H = {b : <b, G> = 0} inside the degree-d piece
    weights = _pairing_weights(field, nvars, d)
    gvec = g_dual.coeff_vector(d)
    hrow = [field.mul(c, w) for c, w in zip(gvec, weights)]
    hbasis = kernel(Matrix(field, [hrow], len(gvec)))

    lam = socle_functional(f)
    qdeg = lam.degree - d
    idx_t = monomial_index(nvars, lam.degree)
    qmons = monomials(nvars, qdeg)
    dmons = monomials(nvars, d)
    rows = []
    for h in hbasis.rows:
        row = []
        for qm in qmons:
            total = field.zero
            for bidx, c in enumerate(h):
                if c == field.zero:
                    continue
                mb = dmons[bidx]
                prod = tuple(x + y for x, y in zip(qm, mb))
                lv = lam.vector[idx_t[prod]]
                if lv != field.zero:
                    total = field.add(total, field.mul(c, lv))
            row.append(total)
        rows.append(row)
    sol = kernel(Matrix(field, rows, len(qmons)))

    j2 = jacobian_graded(f, qdeg)
    sol_space = GradedSubspace(field, nvars, qdeg, f.family, sol, _pivot_cols(sol))
    invariant(subspace_le(j2, sol_space), "Jacobian quadrics do not annihilate H")
    reduced = [j2.reduce(row) for row in sol.rows]
    quotient = span(field, nvars, qdeg, f.family, reduced)
    if quotient.dim != 1:
        raise DegeneratePairError(
            f"annihilator solution space has dimension {quotient.dim} mod the "
            "Jacobian piece; expected 1",
            dim=quotient.dim,
        )
    qprime = Polynomial.from_vector(field, nvars, f.family, qdeg, quotient.basis.rows[0])
    # recheck the defining property exactly
    for h in hbasis.rows:
        hb = Polynomial.from_vector(field, nvars, f.family, d, h)
        prod = (qprime * hb).coeff_vector(lam.degree)
        invariant(lam.apply_vector(prod) == field.zero, "annihilator recheck failed")
    return qprime


def colon_graded(f: Polynomial, q: Polynomial, k: int) -> GradedSubspace:
    """{a of degree k : a*q lies in the Jacobian ideal piece of degree k+deg q}."""
    _require_homog_or_zero(q)
    if q.nvars != f.nvars or q.field != f.field or q.family != f.family:
        raise AmbientMismatchError("F and Q live in different rings")
    field = f.field
    nvars = f.nvars
    if q.is_zero():
        dim_k = graded_dim(nvars, k)
        return span(field, nvars, k, f.family, Matrix.identity(field, dim_k).rows)
    e = q.homogeneous_degree()
    j = jacobian_graded(f, k + e)
    comp = j.complement_columns
    cols = []
    for m in monomials(nvars, k):
        mono = Polynomial(field, nvars, f.family, {m: field.one})
        vec = (mono * q).coeff_vector(k + e)
        resid = j.reduce(vec)
        cols.append([resid[c] for c in comp])
    # a is in the colon iff sum_m a_m * resid_m = 0
    mat = Matrix(field, cols, len(comp)).transpose()
    null = kernel(mat)
    out = GradedSubspace(field, nvars, k, f.family, null, _pivot_cols(null))
    jk = jacobian_graded(f, k)
    invariant(subspace_le(jk, out), "colon does not contain the Jacobian piece")
    return out


def _require_homog_or_zero(p: Polynomial):
    if not p.is_homogeneous():
        raise PreconditionError("polynomial must be homogeneous")


def extract_c(f: Polynomial, q: Polynomial) -> CubicC:
    """Normalized generator of the perp line of (J_F : Q) in degree deg F."""
    require_smooth(f)
    d = f.homogeneous_degree()
    colon = colon_graded(f, q, d)
    perp_dim = colon.ambient_dim - colon.dim
    if perp_dim != 1:
        raise DegeneratePairError(
            f"colon perp has dimension {perp_dim}; the pair (F, Q) is degenerate",
            dim=perp_dim,
        )
    line = perp_graded(colon)
    c = Polynomial.from_vector(
        f.field, f.nvars, line.family, d, line.basis.rows[0]
    )
    return CubicC(c, f, q)
