"""Command-line front end.

Every subcommand maps onto one library operation and emits a deterministic
report (text by default, JSON with --output json).  Exit codes: 0 = a verdict
was computed (even a negative or inconclusive one), 1 = usage error,
2 = precondition violation, 3 = internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

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
    ci_smooth,
    is_smooth_hypersurface,
    jacobian_graded,
    milnor_profile,
    smooth_reference_dims,
)
from .lefschetz import slp_check, slp_search
from .linalg import FieldConfig, rank
from .poly import Polynomial, parse_poly
from .report import build_report, render_text, report_json

SUBCOMMANDS = (
    "milnor-dims",
    "smooth",
    "ci-smooth",
    "perp",
    "colon",
    "extract-c",
    "socle-pairing",
    "defect",
    "lemma-defect",
    "special-q",
    "singular-search",
    "node-check",
    "lefschetz",
    "membership-u",
    "construct-pair",
    "verify-corollary",
    "theorem14",
    "deformation",
    "reproduce-example",
)


def _read_arg(value: str) -> str:
    """Inline string, or @path to read from a file."""
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as err:
            raise ParseError(f"cannot read {value[1:]!r}: {err.strerror}") from None
    return value


def _common_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--field", default=None, help="rational | fp:<p>")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coeff-bound", type=int, default=10)
    sp.add_argument("--kmax", type=int, default=12)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--output", choices=("json", "text"), default="text")
    sp.add_argument("--nvars", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradus",
        description="Exact graded-ring computations for cubic threefold / K3 pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        sp = sub.add_parser(name)
        _common_flags(sp)
        for flag, kwargs in extra.items():
            sp.add_argument(flag, **kwargs)
        return sp

    add("milnor-dims", **{"--poly": dict(required=True)})
    add("smooth", **{"--poly": dict(required=True)})
    add("ci-smooth", **{"-f": dict(required=True), "-q": dict(required=True)})
    add("perp", **{"--poly": dict(required=True), "--k": dict(type=int, default=3)})
    add(
        "colon",
        **{
            "-f": dict(required=True),
            "-q": dict(required=True),
            "--k": dict(type=int, default=1),
        },
    )
    add("extract-c", **{"-f": dict(required=True), "-q": dict(required=True)})
    add(
        "socle-pairing",
        **{"--poly": dict(required=True), "--j": dict(type=int, default=2)},
    )
    add(
        "defect",
        **{"--points": dict(required=True), "--k": dict(type=int, default=1)},
    )
    add(
        "lemma-defect",
        **{
            "--poly": dict(required=True),
            "--points": dict(required=True),
            "--k": dict(type=int, default=0),
        },
    )
    add("special-q", **{"--n": dict(type=int, default=4), "--d": dict(type=int, default=3)})
    add(
        "singular-search",
        **{"--poly": dict(required=True), "--p": dict(type=int, default=7)},
    )
    add(
        "node-check",
        **{"--poly": dict(required=True), "--point": dict(required=True)},
    )
    add("lefschetz", **{"--poly": dict(required=True), "--ell": dict(default=None)})
    add("membership-u", **{"--poly": dict(required=True)})
    add(
        "construct-pair",
        **{
            "-f": dict(required=True),
            "--g": dict(default=None),
            "--max-perturbations": dict(type=int, default=10),
        },
    )
    add("verify-corollary", **{"-f": dict(required=True), "-q": dict(required=True)})
    add("theorem14", **{"--poly": dict(required=True)})
    add("deformation", **{"--steps": dict(type=int, default=4)})
    add("reproduce-example")
    return parser


def _field_from(args) -> FieldConfig:
    text = args.field or os.environ.get("GRADUS_FIELD") or "rational"
    return FieldConfig.parse(text)


def _poly_arg(args, field, attr, family=None, nvars=None) -> tuple[Polynomial, str]:
    raw = getattr(args, attr)
    text = _read_arg(raw)
    nv = nvars if nvars is not None else args.nvars
    return parse_poly(text, field, family=family, nvars=nv), text


def _points_arg(args, field) -> tuple[PointSet, str]:
    text = _read_arg(args.points).replace(";", "\n")
    return parse_points(text, field), text


def _subspace_results(space) -> dict:
    polys = [
        str(Polynomial.from_vector(space.field, space.nvars, space.family, space.degree, row))
        for row in space.basis.rows
    ]
    return {"dim": space.dim, "basis": polys}


def _dispatch(args) -> tuple[dict, dict, dict]:
    """Returns (inputs, results, certificates) for the chosen subcommand."""
    field = _field_from(args)
    cmd = args.command
    inputs: dict = {}
    certs: dict = {}

    if cmd == "milnor-dims":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
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
        return inputs, res, certs

    if cmd == "smooth":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        cert = is_smooth_hypersurface(p)
        certs["smooth"] = cert.as_dict()
        return inputs, {"verdict": cert.verdict, "degree": cert.degree}, certs

    if cmd == "ci-smooth":
        f, ftext = _poly_arg(args, field, "f")
        q, qtext = _poly_arg(args, field, "q", nvars=f.nvars)
        inputs["f"], inputs["q"] = ftext, qtext
        cert = ci_smooth(f, q, args.kmax)
        certs["ci_smooth"] = cert.as_dict()
        return inputs, {"verdict": cert.verdict, "degree": cert.degree}, certs

    if cmd == "perp":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        space = perp_graded(jacobian_graded(p, args.k))
        return inputs, {"k": args.k, **_subspace_results(space)}, certs

    if cmd == "colon":
        f, ftext = _poly_arg(args, field, "f")
        q, qtext = _poly_arg(args, field, "q", nvars=f.nvars)
        inputs["f"], inputs["q"] = ftext, qtext
        space = colon_graded(f, q, args.k)
        return inputs, {"k": args.k, **_subspace_results(space)}, certs

    if cmd == "extract-c":
        f, ftext = _poly_arg(args, field, "f")
        q, qtext = _poly_arg(args, field, "q", nvars=f.nvars)
        inputs["f"], inputs["q"] = ftext, qtext
        cubic = extract_c(f, q)
        cert = is_smooth_hypersurface(cubic.poly)
        certs["c_smooth"] = cert.as_dict()
        return inputs, {"c": str(cubic.poly), "c_smooth": cert.verdict}, certs

    if cmd == "socle-pairing":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        lam = socle_functional(p)
        mat = macaulay_pairing_matrix(p, args.j)
        r = rank(mat)
        res = {
            "j": args.j,
            "shape": [mat.nrows, mat.ncols],
            "rank": r,
            "nondegenerate": r == mat.nrows == mat.ncols,
            "socle_degree": lam.degree,
        }
        return inputs, res, certs

    if cmd == "defect":
        pts, text = _points_arg(args, field)
        inputs["points"] = text
        return inputs, defect(pts, args.k).as_dict(), certs

    if cmd == "lemma-defect":
        p, ptext = _poly_arg(args, field, "poly")
        pts, text = _points_arg(args, field)
        inputs["poly"], inputs["points"] = ptext, text
        return inputs, check_lemma_defect(p, pts, args.k).as_dict(), certs

    if cmd == "special-q":
        q = special_q(field, args.n, args.d)
        return inputs, {"poly": str(q), "terms": len(q.terms)}, certs

    if cmd == "singular-search":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        found = brute_singular_search(p, args.p)
        pts = [[str(x) for x in pt] for pt in found.points]
        return inputs, {"prime": args.p, "count": len(found), "points": pts}, certs

    if cmd == "node-check":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        from fractions import Fraction

        try:
            coords = [Fraction(x.strip()) for x in _read_arg(args.point).split(",")]
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad point {args.point!r}") from None
        verdict = is_node(p, coords)
        return inputs, {"point": [str(c) for c in coords], "is_node": verdict}, certs

    if cmd == "lefschetz":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        if args.ell:
            ell_text = _read_arg(args.ell)
            inputs["ell"] = ell_text
            ell = parse_poly(ell_text, field, nvars=p.nvars)
            prof = slp_check(p, ell)
            return inputs, prof.as_dict(), certs
        result = slp_search(p, args.trials, args.seed, args.coeff_bound)
        return inputs, result.as_dict(), certs

    if cmd == "membership-u":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        um = pipeline.membership_u(p, args.trials, args.seed, args.coeff_bound)
        return inputs, um.as_dict(), certs

    if cmd == "construct-pair":
        f, ftext = _poly_arg(args, field, "f")
        inputs["f"] = ftext
        if args.g:
            gtext = _read_arg(args.g)
            inputs["g"] = gtext
            g = parse_poly(gtext, field, family="y", nvars=f.nvars)
        else:
            um = pipeline.membership_u(f, args.trials, args.seed, args.coeff_bound)
            if not um.in_u:
                return inputs, {"verdict": "not_certified", **um.as_dict()}, certs
            g = um.witness
        cert = pipeline.construct_pair(
            f, g, args.seed, args.max_perturbations, args.coeff_bound, args.kmax
        )
        certs["y_smooth"] = cert.y_smooth.as_dict()
        certs["c_smooth"] = cert.c_smooth.as_dict()
        return inputs, cert.as_dict(), certs

    if cmd == "verify-corollary":
        f, ftext = _poly_arg(args, field, "f")
        q, qtext = _poly_arg(args, field, "q", nvars=f.nvars)
        inputs["f"], inputs["q"] = ftext, qtext
        cert = pipeline.verify_corollary(f, q, args.kmax)
        return inputs, cert.as_dict(), certs

    if cmd == "theorem14":
        p, text = _poly_arg(args, field, "poly")
        inputs["poly"] = text
        rep = pipeline.theorem14_check(
            p, args.trials, args.seed, args.coeff_bound, args.kmax
        )
        return inputs, rep.as_dict(), certs

    if cmd == "deformation":
        rep = pipeline.deformation_experiment(
            args.seed, args.steps, args.trials, bound=5, field=field
        )
        return inputs, rep, certs

    if cmd == "reproduce-example":
        rep = pipeline.reproduce_example(field)
        return inputs, rep, certs

    raise ParseError(f"unknown command {cmd!r}")


def _parameters(args) -> dict:
    # inputs are digested separately; flags only here
    skip = {"command", "output", "field", "poly", "f", "q", "g", "ell", "points", "point"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not k.startswith("_")
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    t0 = time.perf_counter()
    field_desc = None
    try:
        field_desc = _field_from(args).descriptor()
        inputs, results, certs = _dispatch(args)
    except BudgetExhaustedError as err:
        inputs, results, certs = {}, {"verdict": "budget_exhausted", "reason": str(err)}, {}
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
        field_desc,
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
