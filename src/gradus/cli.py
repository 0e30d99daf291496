"""Command-line front end.

Every subcommand maps onto one library operation and emits a deterministic
report (text by default, JSON with --output json).  Exit codes: 0 = a verdict
was computed (even a negative or inconclusive one), 1 = usage error,
2 = precondition violation, 3 = internal invariant breach.

`COMMANDS` maps each subcommand to the flags its handler reads and to the
handler; the parser, the dispatch, `SUBCOMMANDS` and the report's parameters
all read that table.  The parameters leave out what `UNREAD_WITH` names: the
flags of a draw that an explicit witness (`--ell`, `--g`) replaces.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import pipeline
from .apolarity import (
    colon_graded,
    extract_c,
    macaulay_pairing_matrix,
    perp_graded,
    socle_functional,
)
from .defects import (
    PointSet,
    brute_singular_search,
    check_lemma_defect,
    defect,
    is_node,
    parse_points,
    special_q,
)
from .errors import (
    BudgetExhaustedError,
    GradusError,
    InternalInvariantError,
    ParseError,
)
from .jacobian import (
    DEFAULT_KMAX,
    ci_smooth,
    is_smooth_hypersurface,
    jacobian_graded,
    milnor_profile,
    smooth_reference_dims,
)
from .lefschetz import slp_check, slp_search
from .linalg import DEFAULT_BOUND, DEFAULT_TRIALS, FieldConfig, rank
from .poly import Polynomial, parse_poly
from .report import build_report, render_text, report_json


def _read_arg(value: str) -> str:
    """Inline string, or @path to read from a file."""
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as err:
            raise ParseError(f"cannot read {value[1:]!r}: {err.strerror}") from None
    return value


def _field_from(args) -> FieldConfig:
    text = args.field or os.environ.get("GRADUS_FIELD") or "rational"
    return FieldConfig.parse(text)


def _poly(args, field, inputs, name, **kw) -> Polynomial:
    """Read flag `name` (inline or @path), record its text as an input, parse it."""
    text = inputs[name] = _read_arg(getattr(args, name))
    kw.setdefault("nvars", args.nvars)
    return parse_poly(text, field, **kw)


def _pair(args, field, inputs) -> tuple[Polynomial, Polynomial]:
    f = _poly(args, field, inputs, "f")
    return f, _poly(args, field, inputs, "q", nvars=f.nvars)


def _points(args, field, inputs) -> PointSet:
    text = inputs["points"] = _read_arg(args.points).replace(";", "\n")
    return parse_points(text, field)


def _subspace_results(space) -> dict:
    polys = [
        str(Polynomial.from_vector(space.field, space.nvars, space.family, space.degree, row))
        for row in space.basis.rows
    ]
    return {"dim": space.dim, "basis": polys}


# Handlers: (args, field, inputs, certs) -> results, filling inputs and certs.


def _milnor_dims(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    prof = milnor_profile(p)
    cert = is_smooth_hypersurface(p)
    res = {
        "t": prof.t,
        "dims": {str(k): v for k, v in prof.as_dict().items()},
        "smooth_verdict": cert.verdict,
    }
    if cert.is_smooth:
        ref = smooth_reference_dims(p.nvars, p.homogeneous_degree())
        res["reference"] = ref
        res["matches_reference"] = list(prof.dims[: len(ref)]) == ref
    certs["smooth"] = cert.as_dict()
    return res


def _smooth(args, field, inputs, certs):
    cert = is_smooth_hypersurface(_poly(args, field, inputs, "poly"))
    certs["smooth"] = cert.as_dict()
    return {"verdict": cert.verdict, "degree": cert.degree}


def _ci_smooth(args, field, inputs, certs):
    cert = ci_smooth(*_pair(args, field, inputs), args.kmax)
    certs["ci_smooth"] = cert.as_dict()
    return {"verdict": cert.verdict, "degree": cert.degree}


def _perp(args, field, inputs, certs):
    space = perp_graded(jacobian_graded(_poly(args, field, inputs, "poly"), args.k))
    return {"k": args.k, **_subspace_results(space)}


def _colon(args, field, inputs, certs):
    space = colon_graded(*_pair(args, field, inputs), args.k)
    return {"k": args.k, **_subspace_results(space)}


def _extract_c(args, field, inputs, certs):
    cubic = extract_c(*_pair(args, field, inputs))
    cert = is_smooth_hypersurface(cubic.poly)
    certs["c_smooth"] = cert.as_dict()
    return {"c": str(cubic.poly), "c_smooth": cert.verdict}


def _socle_pairing(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    lam = socle_functional(p)
    mat = macaulay_pairing_matrix(p, args.j)
    r = rank(mat)
    return {
        "j": args.j,
        "shape": [mat.nrows, mat.ncols],
        "rank": r,
        "nondegenerate": r == mat.nrows == mat.ncols,
        "socle_degree": lam.degree,
    }


def _defect(args, field, inputs, certs):
    return defect(_points(args, field, inputs), args.k).as_dict()


def _lemma_defect(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    return check_lemma_defect(p, _points(args, field, inputs), args.k).as_dict()


def _special_q(args, field, inputs, certs):
    q = special_q(field, args.n, args.d)
    return {"poly": str(q), "terms": len(q.terms)}


def _singular_search(args, field, inputs, certs):
    found = brute_singular_search(_poly(args, field, inputs, "poly"), args.p)
    pts = [[str(x) for x in pt] for pt in found.points]
    return {"prime": args.p, "count": len(found), "points": pts}


def _node_check(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    try:  # --point is neither digested nor a parameter: the results echo it
        coords = [Fraction(x.strip()) for x in _read_arg(args.point).split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad point {args.point!r}") from None
    return {"point": [str(c) for c in coords], "is_node": is_node(p, coords)}


def _lefschetz(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    if args.ell is not None:
        return slp_check(p, _poly(args, field, inputs, "ell", nvars=p.nvars)).as_dict()
    return slp_search(p, args.trials, args.seed, args.coeff_bound).as_dict()


def _membership_u(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    return pipeline.membership_u(p, args.trials, args.seed, args.coeff_bound).as_dict()


def _construct_pair(args, field, inputs, certs):
    f = _poly(args, field, inputs, "f")
    if args.g is not None:
        g = _poly(args, field, inputs, "g", family="y", nvars=f.nvars)
    else:
        um = pipeline.membership_u(f, args.trials, args.seed, args.coeff_bound)
        if not um.in_u:
            return {"verdict": "not_certified", **um.as_dict()}
        g = um.witness
    cert = pipeline.construct_pair(
        f, g, args.seed, args.max_perturbations, args.coeff_bound, args.kmax
    )
    certs["y_smooth"] = cert.y_smooth.as_dict()
    certs["c_smooth"] = cert.c_smooth.as_dict()
    return cert.as_dict()


def _verify_corollary(args, field, inputs, certs):
    return pipeline.verify_corollary(*_pair(args, field, inputs), args.kmax).as_dict()


def _theorem14(args, field, inputs, certs):
    p = _poly(args, field, inputs, "poly")
    return pipeline.theorem14_check(
        p, args.trials, args.seed, args.coeff_bound, args.kmax
    ).as_dict()


def _deformation(args, field, inputs, certs):
    return pipeline.deformation_experiment(args.seed, args.steps, args.trials, field=field)


def _reproduce_example(args, field, inputs, certs):
    return pipeline.reproduce_example(field)


def _int(default: int | None) -> dict:
    return dict(type=int, default=default)


COMMON_FLAGS = {
    "--field": dict(default=None, help="rational | fp:<p>"),
    "--seed": _int(0),
    "--output": dict(choices=("json", "text"), default="text"),
}

# own-flag groups, each given only to the commands that read it
_REQ, _OPT = dict(required=True), dict(default=None)
NVARS = {"--nvars": _int(None)}
KMAX = {"--kmax": _int(DEFAULT_KMAX)}
TRIALS = {"--trials": _int(DEFAULT_TRIALS)}
DRAWS = {**TRIALS, "--coeff-bound": _int(DEFAULT_BOUND)}
POLY = {"--poly": _REQ, **NVARS}
PAIR = {"-f": _REQ, "-q": _REQ, **NVARS}


# name -> (the subcommand's own flags, handler); the common flags come first
COMMANDS = {
    "milnor-dims": (POLY, _milnor_dims),
    "smooth": (POLY, _smooth),
    "ci-smooth": ({**PAIR, **KMAX}, _ci_smooth),
    "perp": ({**POLY, "--k": _int(3)}, _perp),
    "colon": ({**PAIR, "--k": _int(1)}, _colon),
    "extract-c": (PAIR, _extract_c),
    "socle-pairing": ({**POLY, "--j": _int(2)}, _socle_pairing),
    "defect": ({"--points": _REQ, "--k": _int(1)}, _defect),
    "lemma-defect": ({**POLY, "--points": _REQ, "--k": _int(0)}, _lemma_defect),
    "special-q": ({"--n": _int(4), "--d": _int(3)}, _special_q),
    "singular-search": ({**POLY, "--p": _int(7)}, _singular_search),
    "node-check": ({**POLY, "--point": _REQ}, _node_check),
    "lefschetz": ({**POLY, "--ell": _OPT, **DRAWS}, _lefschetz),
    "membership-u": ({**POLY, **DRAWS}, _membership_u),
    "construct-pair": (
        {"-f": _REQ, **NVARS, "--g": _OPT, "--max-perturbations": _int(pipeline.DEFAULT_BUDGET),
         **DRAWS, **KMAX},
        _construct_pair,
    ),
    "verify-corollary": ({**PAIR, **KMAX}, _verify_corollary),
    "theorem14": ({**POLY, **DRAWS, **KMAX}, _theorem14),
    "deformation": ({"--steps": _int(4), **TRIALS}, _deformation),
    "reproduce-example": ({}, _reproduce_example),
}
SUBCOMMANDS = tuple(COMMANDS)

# Own flags that take text are the command's inputs (digested, except
# --point), never parameters: poly f q g ell points point.
TEXT_FLAGS = frozenset(
    flag.lstrip("-").replace("-", "_")
    for own, _ in COMMANDS.values()
    for flag, kw in own.items()
    if "type" not in kw
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Exact graded-ring computations for cubic threefold / K3 pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (own, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, kw in {**COMMON_FLAGS, **own}.items():
            sp.add_argument(flag, **kw)
    return parser


UNREAD_WITH = {"ell": {"trials", "coeff_bound"}, "g": {"trials"}}


def _parameters(args) -> dict:
    # inputs are digested separately, field and seed sit in the envelope
    skip = {"command", "output", "field", "seed", *TEXT_FLAGS}
    skip.update(*(v for k, v in UNREAD_WITH.items() if getattr(args, k, None) is not None))
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    t0 = time.perf_counter()
    inputs: dict = {}
    certs: dict = {}
    try:
        field = _field_from(args)
        results = COMMANDS[args.command][1](args, field, inputs, certs)
    except BudgetExhaustedError as err:  # the inputs read so far stay digested
        results, certs = {"verdict": "budget_exhausted", "reason": str(err)}, {}
    except ParseError as err:
        print(f"gradus: input error: {err}", file=sys.stderr)
        return 1
    except InternalInvariantError as err:
        print(f"gradus: internal invariant breach: {err}", file=sys.stderr)
        return 3
    except GradusError as err:
        print(f"gradus: {err}", file=sys.stderr)
        return err.exit_code
    except AssertionError as err:
        print(f"gradus: internal invariant breach: {err}", file=sys.stderr)
        return 3
    wall = (time.perf_counter() - t0) * 1000.0
    report = build_report(
        args.command,
        field.descriptor(),
        args.seed,
        _parameters(args),
        inputs,
        results,
        certs,
        wall_time_ms=wall,
    )
    if args.output == "json":
        print(report_json(report))
    else:
        print(render_text(report["report"]))
        print(f"wall_time_ms: {wall:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
