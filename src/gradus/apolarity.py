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
weights c!, |c| = d.  So is every rank of multiplication on S/J_F
(`_quotient_rank`, read by the pair pipeline, `slp_check` and
`theorem14_check`): a*g lies in J exactly when lambda(a*g*S) = 0, so the
rank of g from degree k is the rank of the catalecticant
[lambda(g*m_a*m_b)], with no J basis built.  It is read first off the
Milnor sweep record's degree-T column, lambda mod p up to a unit, and
promoted over Q where it reaches min(h_k, h_{k+deg g}); otherwise lambda's
own catalecticant decides exactly.  `colon_graded` and `perp_graded` stay
the general routes: the `colon` and `perp` commands and
`verify_corollary`, whose F need not be smooth.  Quotient pieces are
represented in the canonical complement-monomial coordinates (the
non-pivot columns of the Jacobian rref basis), so all outputs are exactly
comparable.

Annihilators are kernels: <b, g> = b W g with W = diag(c!), so E-perp is
the kernel of E's rows weighted by W (`linalg.kernel`), and the
perp of J_d is read from J_d's generator rows x^a * dF/dx_i with no J_d
basis built (`_jacobian_perp`, cached).  Every "pairs to zero" check is one
exact product of such rows with the weighted duals, B (G W)^T
(`_pairing_product`); against J_d it runs on the generator rows
(`_jacobian_pairings`).

Over Q lambda spans the kernel of A, the r x n integer matrix of J_T's
generator rows x^a * dF/dx_i, and is that kernel's rref row from
`linalg._kernel_rows`, the same p-adic lift as every exact kernel and rref:
one elimination of [A^T | I_n] modulo the lift prime p gives the rows of A
independent mod p, lambda mod p and the solver of each Dixon digit, and
the lift is taken only when A kills it and it is zero left of the column
where lambda mod p leads (the argument is `linalg`'s).  No J_T rref and no
inverse of a pivot block are built.  dim_Q (S/J_F)_T = 1 is checked first
by `milnor_dim`, which reads it off the Milnor sweep record of F's class
(`jacobian._milnor_sweep`) where that record calls it exact and takes the
rref route elsewhere; any other dimension raises NotSmoothError naming it.
A prime that drops the rank of A is unlucky, found as soon as its lift
solves the independent rows, and the next prime takes over.  Over F_p no
J_T is built: lambda is the record's `socle`, its degree-T normal form.
With h_T = 1, as for every F smooth over F_p (p > d: the partials form a
regular sequence), v(m) = the coefficient of NF(m) on the one standard
monomial is nonzero and vanishes on J_T mod p, whose annihilator is a
line, so v is lambda up to scale; h_T != 1 raises NotSmoothError naming
h_T, the dimension of that annihilator.
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
from .jacobian import _by_degree, _integer_rows, _matmul_mod, _milnor_sweep
from .jacobian import _multiplication_matrix, _require_same_ring, jacobian_graded, milnor_dim
from .jacobian import partials, require_smooth
from .linalg import (
    CACHE_SIZE,
    DEFAULT_PRIME,
    FieldConfig,
    GradedSubspace,
    Matrix,
    _common_denominator,
    _kernel_rows,
    kernel,
    rank,
    rank_mod,
    span,
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


@lru_cache(maxsize=CACHE_SIZE)
def _pairing_weights(field: FieldConfig, nvars: int, degree: int) -> tuple:
    """The weights c! = <x^c, y^c> of the degree-k monomials as integers,
    residues over F_p, where they are invertible only when p > k."""
    if not field.is_rational and field.modulus <= degree:
        raise CharacteristicError(
            f"perp at degree {degree} needs characteristic > {degree}"
        )
    return tuple(int(pairing_weight(field, m)) for m in monomials(nvars, degree))


def _integer_array(field: FieldConfig, vecs, n: int) -> np.ndarray:
    """The vectors as rows of integers: over F_p the residues; over Q each
    one's integers over its least common denominator L, a positive multiple
    of it, and its primitive integers when it leads with 1, as rref rows do
    (a prime dividing them all divides L, the lead's integer, but not the
    integer of an entry whose denominator carries L's full power of it)."""
    vecs = [_common_denominator(v)[0] for v in vecs] if field.is_rational else list(vecs)
    return np.array(vecs, dtype=object).reshape(-1, n)


def _weighted_rows(field: FieldConfig, nvars: int, degree: int, rows) -> np.ndarray:
    """The rows times W = diag(c!), mod p over F_p."""
    w = np.array(_pairing_weights(field, nvars, degree), dtype=object)
    out = np.array(rows, dtype=object).reshape(-1, len(w)) * w
    return out if field.is_rational else out % field.modulus


def _pairing_product(field: FieldConfig, nvars: int, degree: int, rows, duals) -> np.ndarray:
    """<b_i, g_j> for the rows b_i and the dual coefficient vectors g_j, as
    one exact product B (G W)^T, each g_j taken as integers
    (`_integer_array`) and weighted by W = diag(c!): over Q entry (i, j) is
    a nonzero multiple of <b_i, g_j>, zero exactly when the pairing is, and
    an integer for integer rows such as the generator rows x^a * dF/dx_i;
    over F_p the residues."""
    n = graded_dim(nvars, degree)
    cols = _weighted_rows(field, nvars, degree, _integer_array(field, duals, n)).T
    rows = np.array(rows, dtype=object).reshape(-1, n)
    return rows @ cols if field.is_rational else _matmul_mod(rows, cols, field.modulus, object)


def _jacobian_pairings(f: Polynomial, d: int, g) -> np.ndarray:
    """`_pairing_product` of the generator rows x^a * dF/dx_i of J_d and
    the dual vector g: all zero exactly when g lies in the perp of J_d."""
    return _pairing_product(f.field, f.nvars, d, _integer_rows(partials(f), d), [g])


def _perp(field: FieldConfig, nvars: int, degree: int, family: str, rows) -> GradedSubspace:
    """{g : <b, g> = 0 for every row b} in the other family.

    <b, g> = b W g for W = diag(c!), so the perp is the kernel of the rows
    weighted by W (`linalg.kernel`), whose canonical basis `span`
    takes as it is.  The result is checked, not recomputed: `kernel` checks
    its dimension, n - rank, and it pairs to zero with the rows (one exact
    product, `_pairing_product`); the pairing is perfect since p > k, so it
    is the perp."""
    weighted = _weighted_rows(field, nvars, degree, rows)
    null = kernel(Matrix(field, weighted.tolist(), weighted.shape[1])).rows
    out = span(field, nvars, degree, "y" if family == "x" else "x", null)
    invariant(not _pairing_product(field, nvars, degree, rows, out.basis.rows).any(),
              "perp does not pair to zero with E")
    return out


def perp_graded(e: GradedSubspace) -> GradedSubspace:
    """Annihilator of a subspace under the polar pairing, in the dual
    family: `_perp` of its basis rows."""
    return _perp(e.field, e.nvars, e.degree, e.family, e.basis.rows)


@lru_cache(maxsize=CACHE_SIZE)
def _jacobian_perp(f: Polynomial, d: int) -> GradedSubspace:
    """The perp of J_d, `_perp` of the generator rows x^a * dF/dx_i: no
    J_d basis is built.  Cached, so a caller that reads it twice for one
    form computes it once."""
    return _perp(f.field, f.nvars, d, f.family, _integer_rows(partials(f), d))


def socle_functional(f: Polynomial) -> SocleFunctional:
    """The unique normalized functional on degree T killing the Jacobian ideal."""
    require_smooth(f)
    return _socle_functional(f)


@lru_cache(maxsize=CACHE_SIZE)
def _socle_functional(f: Polynomial) -> SocleFunctional:
    d = f.homogeneous_degree()
    t = f.nvars * (d - 2)
    if t < 0:
        raise PreconditionError(f"F has no socle functional: T = {f.nvars}*({d}-2) = {t} < 0")
    field, n = f.field, graded_dim(f.nvars, t)
    dim = milnor_dim(f, t)  # the dimension of J_T's annihilator
    if dim != 1:
        raise NotSmoothError(f"socle is {dim}-dimensional at degree {t}; expected 1")
    # J_T's kernel line over Q, the sweep's v over F_p, scaled to lead with 1
    vec = (_kernel_rows(field, _integer_rows(partials(f), t, sparse=True), n)[0][0]
           if field.is_rational else _milnor_sweep(f.normalized()).socle)
    inv = field.inv(next(x for x in vec if x))
    return SocleFunctional(field, f.nvars, t, tuple(field.mul(x, inv) for x in vec))


def _catalecticant(vec, nvars: int, e: int, degree: int) -> np.ndarray:
    """vec(m_i * b_j) for m_i in S_{degree-e} (rows) and b_j in S_e
    (columns), vec a functional on S_degree in its monomial basis: one
    gather through `product_index`; needs 0 <= e <= degree."""
    return np.array(vec, dtype=object)[product_index(nvars, e, degree)]


def _contract(lam: SocleFunctional, h: Polynomial) -> list:
    """The functional m -> lambda(h*m) on S_{T-deg h}, in its monomial basis;
    empty when deg h > T.  h is nonzero and homogeneous.  With lambda = N/L
    and h = H/D over their least common denominators, each entry is the
    integer product of H with the catalecticant of N, divided once by L*D."""
    e = h.homogeneous_degree()
    if e > lam.degree:
        return []
    idx, (hnums, hden) = monomial_index(lam.nvars, e), _common_denominator(h.terms.values())
    cat = _catalecticant(lam.integral[0], lam.nvars, e, lam.degree)[:, [idx[m] for m in h.terms]]
    den = lam.integral[1] * hden
    return [lam.field.coerce(Fraction(x, den)) for x in (cat @ np.array(hnums, dtype=object))]


def _quotient_rank(f: Polynomial, g: Polynomial, k: int) -> int:
    """Rank of multiplication by g from (S/J_F)_k to (S/J_F)_{k+e}, e = deg g,
    for a smooth F and a nonzero homogeneous g in its ring.

    a*g lies in J_{k+e} exactly when lambda(a*g*b) = 0 for every b in
    S_{T-k-e}, so the rank of S_k -> (S/J_F)_{k+e}, which J_k does not
    change, is that of the catalecticant [lambda(g*m_a*m_b)], m_a in S_k,
    m_b in S_{T-k-e}, with no J basis built.

    It is read first off the Milnor sweep record of F's class: where h_T = 1
    mod p (p the field's prime, DEFAULT_PRIME over Q) its column v spans the
    annihilator of J_T mod p, and the catalecticant of v against g's
    primitive integers mod p is taken mod p.  Over F_p v is lambda up to
    scale, so that rank is exact.  Over Q it is promoted: lambda's primitive
    integers N are nonzero mod p and kill J_T mod p, so N = c*v mod p with c
    a unit, and the integer catalecticant of N against g reduces to c times
    the one of v.  So rank_Q >= rank_p, and rank_Q <= min(h_k, h_{k+e}), the
    smooth reference dimensions of S/J_F for F smooth over Q: a rank mod p
    that reaches that bound is exact.  This needs only h_T = 1 mod p, not
    the whole reference series.  Otherwise, or without the column, the
    catalecticant of lambda itself decides exactly."""
    require_smooth(f)
    d, e, n = f.homogeneous_degree(), g.homogeneous_degree(), f.nvars
    t = n * (d - 2)
    if k + e > t:
        return 0
    sweep, ncols = _milnor_sweep(f.normalized()), graded_dim(n, k)
    if sweep.socle is not None:
        p = f.field.modulus or DEFAULT_PRIME
        col = _by_degree([g])[e].T % p  # g's primitive integers mod p
        cat = _matmul_mod(_catalecticant(sweep.socle, n, e, t), col, p, object)[:, 0]
        rk = rank_mod(_catalecticant(cat, n, k, t - e), ncols, p)
        if not f.field.is_rational or rk == min(sweep.ref[k], sweep.ref[k + e]):
            return rk
    # the catalecticant of lambda's contraction, integers over their least
    # common denominator, over the field itself
    nums = _common_denominator(_contract(socle_functional(f), g))[0]
    return rank(Matrix(f.field, _catalecticant(nums, n, k, t - e).tolist(), ncols))


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
    cat = _catalecticant(lam.vector, f.nvars, t - j, t)
    return Matrix(f.field, cat[np.ix_(cols_j, cols_tj)].tolist(), len(cols_tj))


def annihilator_quadric(f: Polynomial, g_dual: Polynomial) -> Polynomial:
    """The quadric (unique mod J_{F,2}, canonically normalized) whose socle
    products vanish on the hyperplane of cubics pairing to zero with G.

    (q, t) is solved for on the pivot columns P of the perp of J_d only
    (`_jacobian_perp`, cached), 10 of 35 for a cubic in 5 variables, with
    the same solution line as on every column.  Each row of the
    catalecticant, b -> lambda(m*b), vanishes on J_d, as m*J_d lies in J_T,
    so it lies in W*J_d^perp, W = diag(c!), and so does gw, as G lies in
    J_d^perp.  A vector of J_d^perp is fixed by its entries on P (its basis
    is in rref) and W is an invertible diagonal, so a vector of W*J_d^perp
    that vanishes on P is zero: a combination of the rows and gw vanishes
    on P exactly when it vanishes.  The solution is rechecked exactly on
    every column."""
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
    if _jacobian_pairings(f, d, gvec).any():
        raise PreconditionError("G is not in the perp of the Jacobian piece")
    # g_dual's integers (residues over F_p) weighted by c!, so that <b, g_dual>
    # is a nonzero multiple of the dot product of b and gw
    gw = _weighted_rows(field, nvars, d, _integer_array(field, [gvec], len(gvec)))[0]

    # lambda(q*H) = 0 on H = g_dual-perp  <=>  q o G = t*g_dual (G the dual
    # generator, up to scale in the integral catalecticant); J_{T-d} o G = 0,
    # so solving over the complement monomials of J_{T-d} gives the reduced q
    qdeg = lam.degree - d
    j2 = jacobian_graded(f, qdeg)
    cat = _catalecticant(lam.integral[0], nvars, d, lam.degree)
    j2_g = _integer_array(field, j2.basis.rows, len(cat)) @ cat
    invariant(not any(map(field.coerce, j2_g.flat)), "Jacobian quadrics do not annihilate H")
    comp, piv = list(j2.complement_columns), list(_jacobian_perp(f, d).pivots)
    null = kernel(Matrix(field, [*cat[np.ix_(comp, piv)].tolist(), (-gw[piv]).tolist()],
                         len(piv)).transpose())
    if null.nrows != 1:
        raise DegeneratePairError(
            f"annihilator solution space has dimension {null.nrows} mod the "
            "Jacobian piece; expected 1",
            dim=null.nrows,
        )
    # t is fixed by q since g != 0, so the q-part leads with 1; recheck the
    # defining property exactly, on the row's integers (q, t) over their
    # least common denominator: sum_c q_c * cat[c] = t * gw
    *qnums, tnum = _common_denominator(null.rows[0])[0]
    resid = np.array(qnums, dtype=object) @ cat[comp] - tnum * gw
    invariant(not any(map(field.coerce, resid)), "annihilator recheck failed")
    mons = monomials(nvars, qdeg)
    return Polynomial(field, nvars, f.family, {mons[c]: x for c, x in zip(comp, null.rows[0][:-1])})


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
    invariant(not any(any(out.reduce(r)) for r in jacobian_graded(f, k).basis.rows),
              "colon does not contain the Jacobian piece")
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
        funcs = _catalecticant(_contract(lam, q), f.nvars, d, lam.degree - e).tolist()
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
