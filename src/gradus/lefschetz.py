"""Multiplication maps between Milnor-algebra graded pieces and
strong-Lefschetz verification for smooth forms.

A profile records, for every k below T/2, the rank of multiplication by the
(T-2k)-th power of a linear form from the degree-k piece to the degree-(T-k)
piece; the verdict is true when every such map is an isomorphism.  A witness
found by randomized search certifies the property (the good locus of linear
forms is open), while a search failure is only ever reported as "no witness
found", never as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apolarity import _quotient_rank
from .errors import PreconditionError, ZeroPolynomialError, require_positive
from .jacobian import _multiplication_matrix, _require_same_ring, jacobian_graded, require_smooth
from .jacobian import smooth_reference_dims
from .linalg import DEFAULT_BOUND, DEFAULT_TRIALS, Matrix, SeedStream, child_seed
from .poly import Polynomial, random_linear_form


@dataclass(frozen=True)
class LefschetzProfile:
    ell: Polynomial
    t: int
    per_k: dict
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "ell": str(self.ell),
            "t": self.t,
            "per_k": {
                str(k): {"source_dim": s, "target_dim": g, "rank": r}
                for k, (s, g, r) in sorted(self.per_k.items())
            },
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SlpSearchResult:
    found: bool
    trials_used: int
    trial_index: int | None = None
    ell: Polynomial | None = None
    profile: LefschetzProfile | None = None

    def as_dict(self) -> dict:
        out = {"found": self.found, "trials_used": self.trials_used}
        if self.found:
            out["trial_index"] = self.trial_index
            out["witness"] = str(self.ell)
            out["profile"] = self.profile.as_dict()
        else:
            out["anomaly"] = (
                "no Lefschetz witness found; inspect this input, it is a "
                "conjecture-relevant event"
            )
        return out


def mult_map(f: Polynomial, g: Polynomial, j: int) -> Matrix:
    """Matrix of multiplication by g from the degree-j quotient piece to the
    degree-(j + deg g) piece, in the canonical complement-monomial bases.
    g must be homogeneous and live in F's ring: same field, nvars and family."""
    require_smooth(f)
    if g.is_zero():
        raise ZeroPolynomialError("multiplier must be nonzero")
    _require_same_ring(f, g, "the multiplier")
    src = jacobian_graded(f, j).complement_columns
    return _multiplication_matrix(g, jacobian_graded(f, j + g.homogeneous_degree()), src)


def slp_check(f: Polynomial, ell: Polynomial) -> LefschetzProfile:
    """Rank profile of ell^(T-2k) from degree k to degree T-k for 2k < T.

    The pieces of S/J_F of a smooth F have the smooth reference dimensions,
    and each rank is `apolarity._quotient_rank`: the catalecticant of the
    sweep record's socle column mod p, promoted over Q where it reaches
    min(h_k, h_{T-k}), else of lambda itself; no J basis is built."""
    require_smooth(f)
    if ell.is_zero():
        raise ZeroPolynomialError("linear form must be nonzero")
    _require_same_ring(f, ell, "the linear form ell")
    if ell.homogeneous_degree() != 1:
        raise PreconditionError("multiplier must be a linear form")
    d = f.homogeneous_degree()
    t = f.nvars * (d - 2)
    dims = smooth_reference_dims(f.nvars, d) if t > 0 else []
    per_k = {k: (dims[k], dims[t - k], _quotient_rank(f, ell.pow(t - 2 * k), k))
             for k in range((t + 1) // 2)}  # 2k < T
    return LefschetzProfile(ell, t, per_k, all(s == g == r for s, g, r in per_k.values()))


def slp_search(
    f: Polynomial, trials: int = DEFAULT_TRIALS, seed: int = 0, bound: int = DEFAULT_BOUND
) -> SlpSearchResult:
    """First linear form (in deterministic seed order) with a full profile.

    Trial i draws from the stream seeded with child_seed(seed, i), so trials
    are reproducible individually and could run concurrently; the witness is
    the lowest-index success.
    """
    require_smooth(f)
    require_positive(trials=trials, bound=bound)
    for i in range(trials):
        stream = SeedStream(child_seed(seed, i))
        ell = random_linear_form(f.field, stream, f.nvars, bound, f.family)
        profile = slp_check(f, ell)
        if profile.verdict:
            return SlpSearchResult(True, i + 1, i, ell, profile)
    return SlpSearchResult(False, trials)
