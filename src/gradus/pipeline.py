"""End-to-end experiments: membership in the good locus, construction of the
(F, Q) pair and its associated cubic, the corollary verifier, the injectivity
experiment, the deformation sweep toward the special nodal form, and the
bundled golden-value checks.

Genericity is rendered as seeded randomized search with recorded witnesses:
the pipeline never claims an open-set statement, it exhibits witnesses and
failure counts.  All reports are deterministic functions of (inputs, field,
seed, parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .apolarity import (
    _contract,
    _integer_array,
    _jacobian_pairings,
    _jacobian_perp,
    _quotient_rank,
    annihilator_quadric,
    colon_graded,
    extract_c,
    socle_functional,
)
from .defects import (
    PointSet,
    brute_singular_search,
    check_lemma_defect,
    defect,
    is_node,
    singular_points,
    special_q,
)
from .errors import (
    BudgetExhaustedError,
    PreconditionError,
    ZeroPolynomialError,
    invariant,
    require_positive,
)
from .jacobian import (
    DEFAULT_KMAX,
    SmoothnessCertificate,
    ci_smooth,
    is_smooth_hypersurface,
    jacobian_graded,
    milnor_dim,
    partials,
    require_cubic_quadric,
    require_smooth,
    smooth_reference_dims,
)
from .linalg import (
    DEFAULT_BOUND,
    DEFAULT_TRIALS,
    FieldConfig,
    Matrix,
    SeedStream,
    _common_denominator,
    child_seed,
    random_scalar,
    rref,
    span,
)
from .poly import (
    Polynomial,
    fermat_form,
    graded_dim,
    monomials,
    random_linear_form,
    random_poly,
)

DEFAULT_BUDGET = 10
# coefficient bound of the deformation direction R
DEFORMATION_BOUND = 5


@dataclass(frozen=True)
class UMembership:
    verdict: str  # "in_u" | "not_certified"
    f: Polynomial
    witness: Polynomial | None
    witness_cert: SmoothnessCertificate | None
    trials_used: int
    reason: str = ""

    @property
    def in_u(self) -> bool:
        return self.verdict == "in_u"

    def as_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "trials_used": self.trials_used,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
            out["witness_certificate"] = self.witness_cert.as_dict()
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class PairCertificate:
    f: Polynomial
    q: Polynomial
    c: Polynomial | None
    y_smooth: SmoothnessCertificate | None
    c_smooth: SmoothnessCertificate | None
    colon1_dim: int
    witness_g: Polynomial | None = None
    q_base: Polynomial | None = None
    perturbations_used: int = 0
    items: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "f": str(self.f),
            "q": str(self.q),
            "c": str(self.c) if self.c is not None else None,
            "y_smooth": self.y_smooth.as_dict() if self.y_smooth else None,
            "c_smooth": self.c_smooth.as_dict() if self.c_smooth else None,
            "colon1_dim": self.colon1_dim,
            "perturbations_used": self.perturbations_used,
        }
        if self.witness_g is not None:
            out["witness_g"] = str(self.witness_g)
        if self.q_base is not None:
            out["q_base"] = str(self.q_base)
        if self.items is not None:
            out["items"] = self.items
        return out


def membership_u(
    f: Polynomial,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
) -> UMembership:
    """Certify F in the good locus by exhibiting a smooth dual form in the
    perp of its degree-d Jacobian piece."""
    require_positive(trials=trials, bound=bound)
    cert = is_smooth_hypersurface(f)
    if not cert.is_smooth:
        return UMembership(
            "not_certified", f, None, None, 0, reason=f"F {cert.verdict}"
        )
    d = f.homogeneous_degree()
    perp = _jacobian_perp(f, d)
    t = f.nvars * (d - 2)
    # the Milnor algebra vanishes above T, and so does the perp
    expected = smooth_reference_dims(f.nvars, d)[d] if d <= t else 0
    invariant(
        perp.dim == expected,
        f"perp of the Jacobian piece has dim {perp.dim}, expected {expected}",
    )
    if perp.dim == 0:
        return UMembership(
            "not_certified", f, None, None, 0,
            reason=f"perp of the Jacobian piece is zero in degree {d} > T = {t}",
        )
    field = f.field
    int_rows = _integer_array(field, perp.basis.rows, perp.ambient_dim).tolist()
    for i in range(trials):
        stream = SeedStream(child_seed(seed, i))
        while True:
            coeffs = [stream.randint(-bound, bound) for _ in range(len(int_rows))]
            vec = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*int_rows)]
            if any(vec):
                break
        gvec = [field.coerce(v) for v in vec]
        g = Polynomial.from_vector(field, f.nvars, perp.family, d, gvec)
        gcert = is_smooth_hypersurface(g)
        if gcert.is_smooth:
            invariant(
                not _jacobian_pairings(f, d, gvec).any(),
                "sampled witness does not annihilate the Jacobian piece",
            )
            return UMembership("in_u", f, g, gcert, i + 1)
    return UMembership(
        "not_certified", f, None, None, trials,
        reason=f"no smooth perp element found in {trials} trials",
    )


def construct_pair(
    f: Polynomial,
    g: Polynomial,
    seed: int = 0,
    max_perturbations: int = DEFAULT_BUDGET,
    bound: int = DEFAULT_BOUND,
    kmax: int = DEFAULT_KMAX,
) -> PairCertificate:
    """Build Q from the witness G and certify the whole pair.

    Starts from the annihilator quadric; when the intersection {F = Q = 0} is
    not certified smooth, perturbs by seeded elements of the degree-2
    Jacobian piece (which leaves the colon, hence the associated cubic,
    unchanged) until it is or the budget runs out.
    """
    gcert = is_smooth_hypersurface(g)
    if not gcert.is_smooth:
        raise PreconditionError(f"witness G is not smooth-certified ({gcert.verdict})")
    q_base = annihilator_quadric(f, g)
    field = f.field
    q = q_base
    y_cert = ci_smooth(f, q, kmax, falsify=False)
    perturbations = 0
    if not y_cert.is_smooth:
        for i in range(max_perturbations):
            stream = SeedStream(child_seed(seed, i))
            pert = Polynomial.zero(field, f.nvars, f.family)
            for p in partials(f):
                pert = pert + p.scale(random_scalar(field, stream, bound))
            cand = q_base + pert
            cand_cert = ci_smooth(f, cand, kmax, falsify=False)
            if cand_cert.is_smooth:
                q, y_cert, perturbations = cand, cand_cert, i + 1
                break
        else:
            raise BudgetExhaustedError(
                f"no smooth intersection within {max_perturbations} perturbations"
            )
    # q - q_base lies in J_2 exactly when it contracts to zero against lambda,
    # and then the colons agree in every degree
    if q != q_base:
        invariant(not any(_contract(socle_functional(f), q - q_base)),
                  "colon changed under a Jacobian perturbation")
    cubic = extract_c(f, q)
    g_norm = g.normalized()
    invariant(cubic.poly == g_norm, "extracted cubic differs from the witness")
    c_cert = is_smooth_hypersurface(cubic.poly)
    # dim (J_F : Q)_1 = dim S_1 - rank of multiplication by Q into (S/J_F)_3
    colon1 = graded_dim(f.nvars, 1) - _quotient_rank(f, q, 1)
    return PairCertificate(
        f=f,
        q=q,
        c=cubic.poly,
        y_smooth=y_cert,
        c_smooth=c_cert,
        colon1_dim=colon1,
        witness_g=g_norm,
        q_base=q_base,
        perturbations_used=perturbations,
    )


def verify_corollary(f: Polynomial, q: Polynomial, kmax: int = DEFAULT_KMAX) -> PairCertificate:
    """Re-run the three pair checks independently, recording per-item outcomes."""
    items: dict = {}
    f_cert = is_smooth_hypersurface(f)
    y_cert = None
    try:
        y_cert = ci_smooth(f, q, kmax)
        items["fano_k3_pair"] = {
            "pass": f_cert.is_smooth and y_cert.is_smooth,
            "f_verdict": f_cert.verdict,
            "y_verdict": y_cert.verdict,
        }
    except (PreconditionError, ZeroPolynomialError) as err:
        items["fano_k3_pair"] = {"pass": False, "error": str(err)}
    c_poly = None
    c_cert = None
    try:
        c_poly = extract_c(f, q).poly
        c_cert = is_smooth_hypersurface(c_poly)
        items["cubic_smooth"] = {
            "pass": c_cert.is_smooth,
            "c": str(c_poly),
            "verdict": c_cert.verdict,
        }
    except PreconditionError as err:
        items["cubic_smooth"] = {"pass": False, "error": str(err)}
    colon1 = colon_graded(f, q, 1)
    items["colon_degree1_zero"] = {"pass": colon1.dim == 0, "dim": colon1.dim}
    return PairCertificate(
        f=f,
        q=q,
        c=c_poly,
        y_smooth=y_cert,
        c_smooth=c_cert,
        colon1_dim=colon1.dim,
        items=items,
    )


@dataclass(frozen=True)
class Theorem14Report:
    success: bool
    ell_witness: Polynomial | None
    ell_trials: int
    q_witness: Polynomial | None
    q_attempts: tuple
    y_smooth: SmoothnessCertificate | None
    colon1_dim: int | None

    def as_dict(self) -> dict:
        return {
            "success": self.success,
            "ell_witness": str(self.ell_witness) if self.ell_witness else None,
            "ell_trials": self.ell_trials,
            "q_witness": str(self.q_witness) if self.q_witness else None,
            "q_attempts": list(self.q_attempts),
            "y_smooth": self.y_smooth.as_dict() if self.y_smooth else None,
            "colon1_dim": self.colon1_dim,
        }


def theorem14_check(
    f: Polynomial,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
    kmax: int = DEFAULT_KMAX,
) -> Theorem14Report:
    """Witness injectivity of multiplication into the degree-3 quotient twice:
    once by the square of a linear form, once by a quadric that also cuts a
    certified-smooth intersection.  Each rank of multiplication from degree
    1, and so the witness's colon dim (J_F : Q)_1 = dim S_1 - rank, is
    `apolarity._quotient_rank`, the route of `construct_pair` and
    `slp_check`: no J basis, and over Q no lambda lift where the rank mod p
    is full."""
    require_positive(trials=trials, bound=bound)
    require_smooth(f)
    require_cubic_quadric(f.nvars, f.degree())  # the quadrics drawn below
    field = f.field
    full = graded_dim(f.nvars, 1)
    ell_witness, ell_trials = None, 0
    for i in range(trials):
        stream = SeedStream(child_seed(seed, i))
        ell = random_linear_form(field, stream, f.nvars, bound, f.family)
        ell_trials = i + 1
        if _quotient_rank(f, ell * ell, 1) == full:
            ell_witness = ell
            break
    q_witness = y_cert = colon1 = None
    attempts = []
    for i in range(trials):
        stream = SeedStream(child_seed(seed, trials + i))
        q = random_poly(field, stream, f.nvars, 2, bound, f.family)
        if q.is_zero():
            attempts.append({"rank_ok": False, "y_verdict": "zero draw"})
            continue
        rk = _quotient_rank(f, q, 1)
        y = ci_smooth(f, q, kmax, falsify=False)
        attempts.append({"rank_ok": rk == full, "y_verdict": y.verdict})
        if rk == full and y.is_smooth:
            q_witness, y_cert, colon1 = q, y, full - rk
            break
    return Theorem14Report(
        success=ell_witness is not None and q_witness is not None,
        ell_witness=ell_witness,
        ell_trials=ell_trials,
        q_witness=q_witness,
        q_attempts=tuple(attempts),
        y_smooth=y_cert,
        colon1_dim=colon1,
    )


# ---------------------------------------------------------------------------
# deformation toward the special nodal form


def _distance_sq_to_subspace(basis: Matrix, vec) -> Fraction:
    """Exact squared euclidean distance from vec to the row space of basis.

    Scaling a basis row keeps the row space, so the rows are read as integer
    rows N over their own common denominators, and vec as m / D.  Then the
    distance is (m.m - p.s) / D^2, with p = N m the projections and s the
    solution of the Gram system (N N^T | p): integer `object` products, and
    one rational rref of the small Gram system."""
    rows = np.array([_common_denominator(r)[0] for r in basis.rows], dtype=object)
    rows = rows.reshape(basis.nrows, basis.ncols)
    m, den = _common_denominator(vec)
    m = np.array(m, dtype=object)
    proj = rows @ m
    aug = np.column_stack([rows @ rows.T, proj])
    red, _, rk = rref(Matrix(basis.field, aug.tolist(), len(rows) + 1))
    invariant(rk == len(rows), "gram matrix of an independent basis is singular")
    return (m @ m - sum(x * row[-1] for x, row in zip(proj.tolist(), red.rows))) / Fraction(den * den)


def deformation_experiment(
    seed: int = 0,
    steps: int = 4,
    trials: int = DEFAULT_TRIALS,
    field=None,
) -> dict:
    """Walk F_t = (special nodal form) + t*R for t = 1, 1/2, ..., 1/steps, R a
    smooth cubic with coefficients in [-DEFORMATION_BOUND, DEFORMATION_BOUND].

    Records smoothness, the perp dimension, membership of each F_t, and the
    drift of the perp toward the Fermat direction (distance recorded as data,
    never asserted).
    """
    if field is None:
        field = FieldConfig.rationals()
    if not field.is_rational:
        raise PreconditionError("the deformation sweep runs over exact rationals")
    require_positive(steps=steps, trials=trials)
    q0 = special_q(field, 4, 3)
    stream = SeedStream(child_seed(seed, 0))
    while True:
        r = random_poly(field, stream, 5, 3, DEFORMATION_BOUND)
        if not r.is_zero() and is_smooth_hypersurface(r).is_smooth:
            break
    fermat_dual = fermat_form(field, 5, 3, family="y")
    fermat_vec = fermat_dual.coeff_vector(3)
    records = []
    smallest_t_in_u = None
    for s in range(1, steps + 1):
        t = Fraction(1, s)
        f_t = q0 + r.scale(t)
        cert = is_smooth_hypersurface(f_t)
        rec = {"t": f"1/{s}", "smooth": cert.verdict}
        if cert.is_smooth:
            perp = _jacobian_perp(f_t, 3)
            rec["perp_dim"] = perp.dim
            dist_sq = _distance_sq_to_subspace(perp.basis, fermat_vec)
            rec["fermat_distance_sq"] = str(dist_sq)
            rec["fermat_distance_float"] = float(dist_sq) ** 0.5
            um = membership_u(f_t, trials, child_seed(seed, s))
            rec["membership"] = um.verdict
            rec["membership_trials"] = um.trials_used
            if um.in_u:
                smallest_t_in_u = f"1/{s}"
        records.append(rec)
    q0_cert = is_smooth_hypersurface(q0)
    return {
        "r": str(r),
        "steps": records,
        "smallest_t_in_u": smallest_t_in_u,
        "t_zero": {"t": "0", "smooth": q0_cert.verdict, "membership": "excluded"},
    }


# ---------------------------------------------------------------------------
# golden-value bundle


def reproduce_example(field=None) -> dict:
    """Run every fixed-value check for the special nodal form in 5 variables."""
    if field is None:
        field = FieldConfig.rationals()
    q = special_q(field, 4, 3)
    checks = []

    def add(name, passed, **details):
        checks.append({"name": name, "pass": bool(passed), **details})

    m3 = milnor_dim(q, 3)
    add("milnor_dim_3_is_10", m3 == 10, got=m3)

    perp3 = _jacobian_perp(q, 3)
    add("perp_dim_is_10", perp3.dim == 10, got=perp3.dim)

    fermat = fermat_form(field, 5, 3, family="y")
    nonzero = sum(map(bool, _jacobian_pairings(q, 3, fermat.coeff_vector(3)).flat))
    add("fermat_in_perp", nonzero == 0, nonzero=nonzero)

    j4 = jacobian_graded(q, 4)
    pure = {tuple(4 if i == j else 0 for i in range(5)) for j in range(5)}
    unit_rows = Matrix.identity(field, graded_dim(5, 4)).rows
    w_rows = [row for row, m in zip(unit_rows, monomials(5, 4)) if m not in pure]
    w = span(field, 5, 4, "x", w_rows)
    add("jacobian_degree4_equals_w", j4 == w, j4_dim=j4.dim, w_dim=w.dim)

    cert = is_smooth_hypersurface(q)
    add("special_form_is_singular", cert.verdict == "singular", verdict=cert.verdict)

    coord_pts = [[1 if i == j else 0 for i in range(5)] for j in range(5)]
    cands = PointSet.from_raw(field, 5, coord_pts)
    verified = singular_points(q, cands)
    add("five_coordinate_singular_points", len(verified) == 5, verified=len(verified))

    brute = brute_singular_search(q, 7)
    expected = {tuple(1 if i == j else 0 for i in range(5)) for j in range(5)}
    add(
        "exhaustive_f7_search_matches",
        set(brute.points) == expected,
        found=len(brute),
    )

    nodes = [is_node(q, pt) for pt in cands.points]
    add("all_points_are_nodes", all(nodes), nodes=sum(nodes))

    defect_values = {k: defect(cands, k).defect for k in range(0, 5)}
    add(
        "defects_vanish_for_positive_degrees",
        all(defect_values[k] == 0 for k in range(1, 5)),
        defects={str(k): v for k, v in defect_values.items()},
    )
    add("defect_at_degree_zero_is_4", defect_values[0] == 4, got=defect_values[0])

    lemma = {k: check_lemma_defect(q, cands, k) for k in range(0, 4)}
    add(
        "dimension_identity_holds",
        all(rep.holds for rep in lemma.values()),
        detail={str(k): rep.as_dict() for k, rep in lemma.items()},
    )
    m5 = milnor_dim(q, 5)
    add("milnor_dim_5_is_5", m5 == 5, got=m5)

    return {"checks": checks, "all_passed": all(c["pass"] for c in checks)}
