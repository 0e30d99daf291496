"""Perp spaces under the polar pairing, Macaulay socle duality, the
annihilator quadric of a hyperplane, graded colon ideals, and extraction of
the associated cubic.

For a smooth F of degree d, S/J_F is a graded complete intersection, hence
Gorenstein with socle degree T = nvars*(d-2): with lambda the socle
functional, a of degree k lies in J_k exactly when lambda(a*S_{T-k}) = 0,
over any field.  The catalecticant lambda(m_i*b_j) is one gather of lambda
through `poly.product_index`, and `_contract(lam, h)` = (m -> lambda(h*m)
on S_{T-deg h}) combines its columns; its entry at x^c over c! is the
coefficient of y^c in h o G, G = sum lambda(x^a)/a! y^a the Macaulay dual
generator, and <b, h o G> = lambda(h*b).  Q, C, the pairing matrix and the
pipeline's colon-invariance check are all read from such contractions,
exactly in every characteristic; p > d is needed only to divide by the
weights c!, |c| = d.  `colon_graded` and `perp_graded` stay the general
routes.  Quotient pieces are represented in the canonical complement-monomial
coordinates (the non-pivot columns of the Jacobian rref basis), so all
outputs are exactly comparable.

Annihilators are read off bases at hand: over Q lambda is the one null
vector of the rref of J_T, E-perp is W^-1 ker E (`linalg._null_vectors`),
W = diag(c!), and every "pairs to zero" check is one exact product
B W G^T, `_pairings`.

Over Q lambda is read off the p-adic lift of J_T's primitive integer rows
(`linalg._rref_integral`): the rref is e_{p_i} + N_i/L on the complement,
one column c for a smooth F, so L e_c - sum_i N_i e_{p_i} is the null
vector, a primitive integer vector.  Over F_p no J_T is built: the Milnor
sweep of F's class keeps its degree-T normal form
(`jacobian._milnor_sweep`).  With h_T = 1, as for every F smooth over F_p
(p > d: the partials form a regular sequence), v(m) = the coefficient of
NF(m) on the one standard monomial is nonzero and vanishes on J_T mod p,
whose annihilator is a line, so v is lambda up to scale; h_T != 1 raises
NotSmoothError naming h_T, the dimension of that annihilator.
`SocleFunctional.vector` is either vector scaled to lead with 1, and
`SocleFunctional.integral` gives it back as (N, L) over the least common
denominator (L = 1 over F_p).  A contraction is then an integer product:
with lambda = N/L and h = H/D over their least common denominators,
lambda(h*m) = (sum_b H_b N[b*m]) / (L*D), one exact division per entry, so
it is exact and linear in h.  The integral catalecticant is the gather of N
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AmbientMismatchError,
    CharacteristicError,
    DegeneratePairError,
    NotSmoothError,
    PreconditionError,
    ZeroPolynomialError,
    invariant,
)
from .jacobian import _integer_rows, _milnor_sweep, _multiplication_matrix, _require_same_ring
from .jacobian import jacobian_graded, partials, require_smooth
from .linalg import (
    CACHE_SIZE,
    FieldConfig,
    GradedSubspace,
    Matrix,
    _common_denominator,
    _null_vectors,
    _rref_integral,
    kernel,
    primitive_int_rows,
    span,
    subspace_le,
)
from .poly import (
    Polynomial,
    graded_dim,
    monomial_index,
    monomials,
    pairing_weight,
    product_index,
)


@dataclass(frozen=True)
class SocleFunctional:
    """Normalized linear functional on the top graded piece vanishing on J_F."""

    field: FieldConfig
    nvars: int
    degree: int
    vector: tuple

    @cached_property
    def integral(self) -> tuple:
        """(N, L), vector = N/L: over Q integers over the least common
        denominator (primitive for a normalized vector), over F_p the
        residues over 1."""
        return _common_denominator(self.vector)


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


def _pairings(e: GradedSubspace, duals) -> np.ndarray:
    """<b_i, g_j> for the basis rows b_i of e and the dual coefficient
    vectors g_j, as the product B W G^T with W = diag(c!): residues mod p,
    and over Q on primitive integer rows, so that entry (i, j) is a nonzero
    multiple of <b_i, g_j>, zero exactly when the pairing is."""
    field, n = e.field, e.ambient_dim
    weights = _pairing_weights(field, e.nvars, e.degree)
    rows, cols = e.basis.rows, list(duals)
    if field.is_rational:
        rows, cols = primitive_int_rows(e.basis), primitive_int_rows(Matrix(field, cols, n))
        weights = [int(w) for w in weights]
    weighted = np.array(rows, dtype=object).reshape(-1, n) * np.array(weights, dtype=object)
    out = weighted @ np.array(cols, dtype=object).reshape(-1, n).T
    return out if field.is_rational else out % field.modulus


def perp_graded(e: GradedSubspace) -> GradedSubspace:
    """Annihilator of a subspace under the polar pairing, in the dual family.

    <a, g> = a W g for W = diag(c!), invertible since p > k, so
    E-perp = W^-1 ker E, and ker E has the explicit basis of `_null_vectors`
    on the rref rows of E.  The result is checked, not recomputed: it pairs
    to zero with E (one exact product, `_pairings`), its dimension is
    dim S_k - dim E, and it is in rref because `span` built it.  The first
    two give out = E-perp (the pairing is perfect), so perp(out) = E, and the
    third makes it the canonical basis.
    """
    field = e.field
    inverses = [field.inv(w) for w in _pairing_weights(field, e.nvars, e.degree)]
    null = _null_vectors(field, e.basis.rows, e.pivots, e.ambient_dim)
    other = "y" if e.family == "x" else "x"
    scaled = [[field.mul(x, w) for x, w in zip(v, inverses)] for v in null]
    out = span(field, e.nvars, e.degree, other, scaled)
    invariant(
        e.dim + out.dim == e.ambient_dim,
        "perp dimension law failed: dim E + dim E-perp != dim S_k",
    )
    invariant(not _pairings(e, out.basis.rows).any(), "perp does not pair to zero with E")
    return out


def socle_functional(f: Polynomial) -> SocleFunctional:
    """The unique normalized functional on degree T killing the Jacobian ideal."""
    require_smooth(f)
    return _socle_functional(f)


@lru_cache(maxsize=CACHE_SIZE)
def _socle_functional(f: Polynomial) -> SocleFunctional:
    t = f.nvars * (f.homogeneous_degree() - 2)
    field, n = f.field, graded_dim(f.nvars, t)
    if field.is_rational:  # the rref of J_T as integers N over one L
        pivots, comp, nums, den = _rref_integral(_integer_rows(partials(f), t, sparse=True), n)
        dim = len(comp)
    else:  # v, the sweep's degree-T normal form, and h_T
        hs, _, socle = _milnor_sweep(f.normalized())
        dim = hs[t]
    if dim != 1:
        raise NotSmoothError(f"socle is {dim}-dimensional at degree {t}; expected 1")
    # the null vector L*e_c - sum_i N_i*e_{p_i}, or v, scaled to lead with 1
    vec = ({comp[0]: den, **{pc: -x for pc, x in zip(pivots, nums)}} if field.is_rational
           else dict(enumerate(socle.tolist())))
    inv = field.inv(vec[min(c for c, x in vec.items() if x)])
    return SocleFunctional(field, f.nvars, t, tuple(field.mul(vec.get(c, 0), inv) for c in range(n)))


def _catalecticant(lam: SocleFunctional, e: int, integral: bool = False) -> np.ndarray:
    """lambda(m_i * b_j) for m_i in S_{T-e} (rows) and b_j in S_e (columns),
    one gather of lambda through `product_index`; needs 0 <= e <= T.
    `integral` gathers lambda's integers N instead (L times lambda)."""
    vec = lam.integral[0] if integral else lam.vector
    return np.array(vec, dtype=object)[product_index(lam.nvars, e, lam.degree)]


def _contract(lam: SocleFunctional, h: Polynomial) -> list:
    """The functional m -> lambda(h*m) on S_{T-deg h}, in its monomial basis;
    empty when deg h > T.  h is nonzero and homogeneous.  With lambda = N/L
    and h = H/D over their least common denominators, each entry is the
    integer product of H with the catalecticant of N, divided once by L*D."""
    e = h.homogeneous_degree()
    if e > lam.degree:
        return []
    idx, (hnums, hden) = monomial_index(lam.nvars, e), _common_denominator(h.terms.values())
    cat = _catalecticant(lam, e, integral=True)[:, [idx[m] for m in h.terms]]
    den = lam.integral[1] * hden
    return [lam.field.coerce(Fraction(x, den)) for x in (cat @ np.array(hnums, dtype=object))]


def macaulay_pairing_matrix(f: Polynomial, j: int) -> Matrix:
    """Multiplication pairing of the degree-j and degree-(T-j) quotient pieces.

    Entry (a, b) is lambda(m_a * m_b) for the complement-monomial bases; full
    rank is the duality statement for smooth forms.
    """
    lam = socle_functional(f)
    t = lam.degree
    if not 0 <= j <= t:
        raise PreconditionError(f"pairing degree {j} outside [0, {t}]")
    cols_j = jacobian_graded(f, j).complement_columns
    cols_tj = jacobian_graded(f, t - j).complement_columns
    cat = _catalecticant(lam, t - j)[np.ix_(cols_j, cols_tj)]
    return Matrix(f.field, cat.tolist(), len(cols_tj))


def annihilator_quadric(f: Polynomial, g_dual: Polynomial) -> Polynomial:
    """The quadric (unique mod J_{F,2}, canonically normalized) whose socle
    products vanish on the hyperplane of cubics pairing to zero with G."""
    lam = socle_functional(f)
    if g_dual.is_zero():
        raise ZeroPolynomialError("G must be nonzero")
    if g_dual.family == f.family:
        raise PreconditionError("G must live in the dual variable family")
    if g_dual.nvars != f.nvars or g_dual.field != f.field:
        raise AmbientMismatchError("F and G live over different rings")
    d = f.homogeneous_degree()
    if g_dual.homogeneous_degree() != d:
        raise PreconditionError("G must have the same degree as F")

    field = f.field
    nvars = f.nvars
    gvec = g_dual.coeff_vector(d)
    if _pairings(jacobian_graded(f, d), [gvec]).any():
        raise PreconditionError("G is not in the perp of the Jacobian piece")
    # g_dual weighted by c!, so that <b, g_dual> is the dot product of b and gw
    gw = [field.mul(c, w) for c, w in zip(gvec, _pairing_weights(field, nvars, d))]

    # lambda(q*H) = 0 on H = g_dual-perp  <=>  q o G = t*g_dual (G the dual
    # generator, up to scale in the integral catalecticant); J_{T-d} o G = 0,
    # so solving over the complement monomials of J_{T-d} gives the reduced q
    qdeg = lam.degree - d
    j2 = jacobian_graded(f, qdeg)
    cat = _catalecticant(lam, d, integral=True)
    j2_g = np.array(primitive_int_rows(j2.basis), dtype=object).reshape(-1, len(cat)) @ cat
    invariant(not any(map(field.coerce, j2_g.flat)), "Jacobian quadrics do not annihilate H")
    comp = list(j2.complement_columns)
    cols = cat[comp].tolist()
    cols.append([field.neg(x) for x in gw])
    null = kernel(Matrix(field, cols, len(gw)).transpose())
    if null.nrows != 1:
        raise DegeneratePairError(
            f"annihilator solution space has dimension {null.nrows} mod the "
            "Jacobian piece; expected 1",
            dim=null.nrows,
        )
    # t is fixed by q since g != 0, so the q-part leads with 1
    q_comp, mons = null.rows[0][:-1], monomials(nvars, qdeg)
    qprime = Polynomial(field, nvars, f.family, {mons[c]: x for c, x in zip(comp, q_comp)})
    # recheck the defining property exactly: Q o G lies in span(g_dual)
    qg = (np.array(q_comp, dtype=object) @ cat[comp]).tolist()
    recheck = span(field, nvars, d, g_dual.family, [gw, qg])
    invariant(recheck.dim == 1, "annihilator recheck failed")
    return qprime


def colon_graded(f: Polynomial, q: Polynomial, k: int) -> GradedSubspace:
    """{a of degree k : a*q lies in the Jacobian ideal piece of degree k+deg q}."""
    _require_same_ring(f, q, "Q")
    field = f.field
    nvars = f.nvars
    if q.is_zero():
        dim_k = graded_dim(nvars, k)
        return span(field, nvars, k, f.family, Matrix.identity(field, dim_k).rows)
    # a is in the colon iff a*q reduces to zero modulo J_{k + deg q}
    j = jacobian_graded(f, k + q.homogeneous_degree())
    out = span(field, nvars, k, f.family, kernel(_multiplication_matrix(q, j)).rows)
    jk = jacobian_graded(f, k)
    invariant(subspace_le(jk, out), "colon does not contain the Jacobian piece")
    return out


def extract_c(f: Polynomial, q: Polynomial) -> CubicC:
    """Normalized generator of the perp line of (J_F : Q) in degree deg F."""
    lam = socle_functional(f)
    _require_same_ring(f, q, "Q")
    field = f.field
    d = f.homogeneous_degree()
    e = q.degree()
    funcs = []
    if e is not None and lam.degree - e >= d:
        # the functionals of the (q*m) o G, m in S_{T-d-e}, which span the
        # perp of the colon: lambda(q*m*b) = (q o G)(m*b) for b in S_d
        qg = np.array(_contract(lam, q), dtype=object)
        funcs = qg[product_index(f.nvars, d, lam.degree - e)].tolist()
    line = span(field, f.nvars, d, f.family, funcs)
    if line.dim != 1:
        raise DegeneratePairError(
            f"colon perp has dimension {line.dim}; the pair (F, Q) is degenerate",
            dim=line.dim,
        )
    weights = _pairing_weights(field, f.nvars, d)
    vec = [field.mul(x, field.inv(w)) for x, w in zip(line.basis.rows[0], weights)]
    dual_family = "y" if f.family == "x" else "x"
    c = Polynomial.from_vector(field, f.nvars, dual_family, d, vec).normalized()
    return CubicC(c, f, q)
