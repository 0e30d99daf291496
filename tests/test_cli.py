import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradus import FieldConfig, parse_poly, special_q
from gradus.cli import main
from gradus.errors import BudgetExhaustedError

QQ = FieldConfig.rationals()

FERMAT = "x0^3+x1^3+x2^3+x3^3+x4^3"
QUADRIC = "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3"
SPECIAL = (
    "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
    "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
)
COORD_POINTS = "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    assert code == 0, err
    return json.loads(out)


def test_smooth_fermat(capsys):
    rep = run_json(capsys, "smooth", "--poly", FERMAT)
    assert rep["report"]["results"]["verdict"] == "smooth"
    assert rep["report"]["results"]["degree"] == 6


def test_smooth_text_output(capsys):
    code, out, _ = run_cli(capsys, "smooth", "--poly", FERMAT)
    assert code == 0
    assert "verdict: smooth" in out


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "smooth", "--poly", "x0^^3")
    assert code == 1 and "input error" in err
    code, _, err = run_cli(capsys, "smooth", "--poly", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, err = run_cli(capsys, "smooth", "--poly", "@/nonexistent/f.poly")
    assert code == 1 and "input error" in err
    # an explicit empty polynomial is a bad input, not an absent flag
    for argv in (
        ("smooth", "--poly", ""),
        ("lefschetz", "--poly", FERMAT, "--ell", ""),
        ("construct-pair", "-f", FERMAT, "--g", ""),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "input error" in err, (argv, code, err)
    rejected = [
        ("membership-u", "--poly", "x0^3+x1^3+x2^3", "--coeff-bound", "0"),
        ("perp", "--poly", FERMAT, "--k", "-1"),
        ("colon", "-f", FERMAT, "-q", QUADRIC, "--k", "-3"),
        ("ci-smooth", "-f", FERMAT, "-q", QUADRIC, "--kmax", "-4"),
        ("membership-u", "--poly", "x0^3+x1^3+x2^3", "--trials", "0"),
        ("theorem14", "--poly", FERMAT, "--trials", "0"),
        ("deformation", "--trials", "0"),
        # F over F_13 has no singular locus mod 5
        ("singular-search", "--field", "fp:13", "--poly", "x0^3 - 3*x0*x1^2 + 5*x2^3 - x0*x1*x2",
         "--p", "5"),
    ]
    for argv in rejected:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("gradus: "), (argv, code, err)
    # extract-c over a field too small for the degree-3 smoothness check
    code, _, err = run_cli(
        capsys, "extract-c", "-f", FERMAT, "-q", "x0*x1+x2*x3+x4^2", "--field", "fp:3"
    )
    assert code == 2 and "smoothness check at degree 3 needs p > 3" in err, err
    rep = run_json(
        capsys, "extract-c", "-f", FERMAT, "-q", "x0*x1+x2*x3+x4^2", "--field", "fp:5"
    )
    assert rep["report"]["results"]["c"] == "y0*y1*y4 + y2*y3*y4"
    # negative verdicts still exit 0
    code, _, _ = run_cli(capsys, "smooth", "--poly", SPECIAL)
    assert code == 0


def test_colon_generic_pair_dimension(capsys):
    rep = run_json(capsys, "colon", "-f", FERMAT, "-q", QUADRIC, "--k", "1")
    assert rep["report"]["results"]["dim"] == 0


def test_perp_basis_roundtrips(capsys):
    rep = run_json(capsys, "perp", "--poly", SPECIAL, "--k", "3")
    res = rep["report"]["results"]
    assert res["dim"] == 10
    for text in res["basis"]:
        assert not parse_poly(text, QQ, family="y", nvars=5).is_zero()


def test_extract_c_roundtrip(capsys):
    rep = run_json(capsys, "extract-c", "-f", FERMAT, "-q", QUADRIC)
    c_text = rep["report"]["results"]["c"]
    c = parse_poly(c_text, QQ, family="y", nvars=5)
    assert c.homogeneous_degree() == 3
    assert str(c) == c_text


def test_special_q_matches_library(capsys):
    rep = run_json(capsys, "special-q", "--n", "4", "--d", "3")
    assert parse_poly(rep["report"]["results"]["poly"], QQ, nvars=5) == parse_poly(
        SPECIAL, QQ, nvars=5
    )


def test_singular_search_counts(capsys):
    rep = run_json(capsys, "singular-search", "--poly", SPECIAL, "--p", "7")
    assert rep["report"]["results"]["count"] == 5
    # scaled to x0^3 + 7*x1^3 + 7*x2^3 before reduction, no denominator
    # vanishes mod 7: x0^3 is singular on the whole line x0 = 0
    rep = run_json(capsys, "singular-search", "--poly", "1/7*x0^3+x1^3+x2^3", "--p", "7")
    assert rep["report"]["results"]["count"] == 8


def _budget_results(*argv):
    """Run gradus in its own process, which must exit 0 within 10 s with the
    verdict budget_exhausted; its report's results."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "gradus.cli", *argv, "--output", "json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - t0 < 10
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["report"]["results"]
    assert results["verdict"] == "budget_exhausted"
    return results


def test_singular_search_past_the_work_budget():
    # 4-space over F_101 has 105101005 points: the scan is refused before it
    # starts, in its own process, with the verdict budget_exhausted
    results = _budget_results("singular-search", "--poly", FERMAT, "--p", "101")
    assert "105101005 points" in results["reason"]


def test_macaulay_blocks_past_the_work_budget():
    # the perp at k = 40 and the colon at k = 30 need Macaulay blocks of
    # 1.5e10 and 2.7e9 cells (a MemoryError traceback before the budget)
    results = _budget_results("perp", "--poly", FERMAT, "--k", "40")
    assert "degree-40 Macaulay rows" in results["reason"]
    results = _budget_results("colon", "-f", FERMAT, "-q", "x0*x1+x2*x3+x4^2", "--k", "30")
    assert "degree-32 Macaulay rows" in results["reason"]


def test_evaluation_map_past_the_work_budget():
    # the degree-120 evaluation map on two points has 2 x 9381251 cells:
    # refused before the monomials are listed
    results = _budget_results("defect", "--points", "1,0,0,0,0;0,1,0,0,0", "--k", "120")
    assert "has 18762502 cells" in results["reason"]


def test_special_q_past_the_work_budget(monkeypatch):
    # n = 300 asks for C(301, 3) = 4499950 exponent tuples of 301 entries, a
    # MemoryError under a 1 GB address-space cap: refused in its own process,
    # and in-process before the first term is built; n = 49 is inside
    results = _budget_results("special-q", "--n", "300")
    assert "have 1354484950 cells" in results["reason"]
    built = []
    combinations = itertools.combinations
    monkeypatch.setattr(itertools, "combinations", lambda *a: built.append(a) or combinations(*a))
    with pytest.raises(BudgetExhaustedError, match="above the work budget"):
        special_q(QQ, 50, 3)
    assert built == []
    assert len(special_q(QQ, 49, 3).terms) == math.comb(50, 3) and built == [(range(50), 3)]


def test_sweep_degrees_past_the_work_budget():
    # x0^99999999999 would sweep T+2 = 99999999999 degrees: refused before
    # the first, and before the smooth reference walks T
    for command in ("smooth", "milnor-dims"):
        results = _budget_results(command, "--poly", "x0^99999999999")
        assert "sweeps 99999999999 degrees" in results["reason"]


def test_macaulay_budget_counts_the_whole_matrix():
    # a quartic in 5 variables with one node, at (1, -100, 0, 0, 0): past
    # reconstruction mod DEFAULT_PRIME, neither the node nor the degree-11
    # normal forms lift, so its certificate needs the exact J_11: five
    # blocks of 495 x 1365 cells, each inside the budget, 3378375 together
    far = ("100010000*x0^4 + 4000200*x0^3*x1 + 60001*x0^2*x1^2 + x0^2*x2^2 + x0^2*x3^2"
           " + x0^2*x4^2 + 400*x0*x1^3 + x1^4 + x2^4 + x3^4 + x4^4")
    results = _budget_results("smooth", "--poly", far)
    assert "degree-11 Macaulay rows have 3378375 cells" in results["reason"]


def test_membership_of_the_fermat_quartic_needs_no_whole_jacobian_piece(capsys):
    # every G drawn in the perp of the Fermat quartic's J_4 is singular at
    # the five coordinate points; its degree-11 normal forms lift to their
    # evaluations and kill J_11 exactly, so each certificate's rank is exact
    # without the 3378375-cell matrix, and no smooth G turns up
    results = run_json(capsys, "membership-u", "--poly", "x0^4+x1^4+x2^4+x3^4+x4^4")["report"]["results"]
    assert results == {"reason": "no smooth perp element found in 5 trials",
                       "trials_used": 5, "verdict": "not_certified"}


def test_socle_pairing_of_a_linear_form_names_its_socle_degree(capsys):
    code, _, err = run_cli(capsys, "socle-pairing", "--poly", "x0+x1+x2", "--j", "0")
    assert code == 2
    assert err == "gradus: F has no socle functional: T = 3*(1-2) = -3 < 0\n"


def test_budget_exhausted_reports_keep_their_input_digests(capsys):
    reports = [
        run_json(capsys, "singular-search", "--poly", poly, "--p", "101")["report"]
        for poly in (FERMAT, SPECIAL)
    ]
    assert [r["results"]["verdict"] for r in reports] == ["budget_exhausted"] * 2
    assert reports[0]["inputs"] != reports[1]["inputs"]
    assert list(reports[0]["inputs"]) == ["poly"]


def test_node_check(capsys):
    rep = run_json(capsys, "node-check", "--poly", SPECIAL, "--point", "1,0,0,0,0")
    assert rep["report"]["results"]["is_node"] is True


def test_defect_and_lemma(capsys):
    rep = run_json(capsys, "defect", "--points", COORD_POINTS, "--k", "2")
    assert rep["report"]["results"]["defect"] == 0
    rep = run_json(
        capsys, "lemma-defect", "--poly", SPECIAL, "--points", COORD_POINTS, "--k", "0"
    )
    assert rep["report"]["results"]["holds"] is True


def test_lefschetz_with_explicit_witness(capsys):
    rep = run_json(
        capsys, "lefschetz", "--poly", FERMAT, "--ell", "x0+x1+x2+x3+x4"
    )
    assert rep["report"]["results"]["verdict"] is True


def test_ring_mismatch_names_the_operands_passed(capsys):
    # a multiplier from another ring is a precondition failure (exit 2)
    # whose message names what the command was given
    for argv, message in (
        (("lefschetz", "--poly", FERMAT, "--ell", "y0+y1+y2+y3+y4"),
         "F and the linear form ell live in different rings"),
        (("lefschetz", "--poly", FERMAT, "--ell", "x0^2+x1"), "the linear form ell must be homogeneous"),
        (("colon", "-f", FERMAT, "-q", "y0*y1+y2^2"), "F and Q live in different rings"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, (argv, code, err)
        assert err.strip() == f"gradus: {message}", argv


def test_membership_u_honest_negative_for_fermat(capsys):
    # every perp element of this form is supported on squarefree monomials,
    # hence singular at the coordinate points: not_certified is correct
    rep = run_json(capsys, "membership-u", "--poly", FERMAT, "--trials", "2")
    assert rep["report"]["results"]["verdict"] == "not_certified"


def test_file_inputs(tmp_path, capsys):
    path = tmp_path / "f.poly"
    path.write_text(FERMAT, encoding="utf-8")
    rep = run_json(capsys, "smooth", "--poly", f"@{path}")
    assert rep["report"]["results"]["verdict"] == "smooth"


def test_env_field_override(monkeypatch, capsys):
    monkeypatch.setenv("GRADUS_FIELD", "fp:101")
    rep = run_json(capsys, "smooth", "--poly", FERMAT)
    assert rep["report"]["field"] == "fp:101"
    monkeypatch.delenv("GRADUS_FIELD")


def test_explicit_field_flag(capsys):
    rep = run_json(capsys, "smooth", "--poly", FERMAT, "--field", "fp:101")
    assert rep["report"]["field"] == "fp:101"
    assert rep["report"]["results"]["verdict"] == "smooth"


def test_reproduce_example_cli(capsys):
    rep = run_json(capsys, "reproduce-example")
    assert rep["report"]["results"]["all_passed"] is True


def test_reports_carry_digests_and_schema(capsys):
    rep = run_json(capsys, "smooth", "--poly", FERMAT)
    assert rep["report"]["schema_version"] == "2"
    assert rep["report"]["inputs"]["poly"].startswith("sha256:")
    assert rep["report"]["command"] == "smooth"
    assert "wall_time_ms" in rep


COMMON = {"field": None, "seed": 0, "output": "text"}

# the own-flag groups, as dests after parsing their defaults
NV = {"nvars": None}
KM = {"kmax": 12}
TR = {"trials": 5}
DR = {**TR, "coeff_bound": 10}

# subcommand -> (required flags, the subcommand's own dests after parsing them)
PARSER_SURFACE = {
    "milnor-dims": (("--poly", "P"), {"poly": "P", **NV}),
    "smooth": (("--poly", "P"), {"poly": "P", **NV}),
    "ci-smooth": (("-f", "F", "-q", "Q"), {"f": "F", "q": "Q", **NV, **KM}),
    "perp": (("--poly", "P"), {"poly": "P", **NV, "k": 3}),
    "colon": (("-f", "F", "-q", "Q"), {"f": "F", "q": "Q", **NV, "k": 1}),
    "extract-c": (("-f", "F", "-q", "Q"), {"f": "F", "q": "Q", **NV}),
    "socle-pairing": (("--poly", "P"), {"poly": "P", **NV, "j": 2}),
    "defect": (("--points", "PTS"), {"points": "PTS", "k": 1}),
    "lemma-defect": (
        ("--poly", "P", "--points", "PTS"),
        {"poly": "P", **NV, "points": "PTS", "k": 0},
    ),
    "special-q": ((), {"n": 4, "d": 3}),
    "singular-search": (("--poly", "P"), {"poly": "P", **NV, "p": 7}),
    "node-check": (("--poly", "P", "--point", "PT"), {"poly": "P", **NV, "point": "PT"}),
    "lefschetz": (("--poly", "P"), {"poly": "P", **NV, "ell": None, **DR}),
    "membership-u": (("--poly", "P"), {"poly": "P", **NV, **DR}),
    "construct-pair": (
        ("-f", "F"),
        {"f": "F", **NV, "g": None, "max_perturbations": 10, **DR, **KM},
    ),
    "verify-corollary": (("-f", "F", "-q", "Q"), {"f": "F", "q": "Q", **NV, **KM}),
    "theorem14": (("--poly", "P"), {"poly": "P", **NV, **DR, **KM}),
    "deformation": ((), {"steps": 4, **TR}),
    "reproduce-example": ((), {}),
}


def test_parser_surface(capsys):
    from gradus.cli import SUBCOMMANDS, build_parser

    assert tuple(PARSER_SURFACE) == SUBCOMMANDS
    parser = build_parser()
    for cmd, (required, own) in PARSER_SURFACE.items():
        want = {"command": cmd, **COMMON, **own}
        got = vars(parser.parse_args([cmd, *required]))
        assert got == want, cmd
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()
        }, cmd
        # integer flags parse their text to int
        for dest, default in {**COMMON, **own}.items():
            if type(default) is int or dest == "nvars":
                flag = "--" + dest.replace("_", "-")
                value = vars(parser.parse_args([cmd, *required, flag, "7"]))[dest]
                assert value == 7 and type(value) is int, (cmd, dest)
        assert main([cmd, *required, "--output", "xml"]) == 1, cmd
        capsys.readouterr()
        # every required flag is required: dropping one is a usage error
        for i in range(0, len(required), 2):
            argv = [cmd, *required[:i], *required[i + 2 :]]
            assert main(argv) == 1, argv
            assert "required" in capsys.readouterr().err, argv


def test_readme_lists_the_command_table():
    """README's "Subcommands:" table names every subcommand in order, each
    with its own flags, as `cli.COMMANDS` defines them."""
    import re
    from pathlib import Path

    from gradus.cli import COMMANDS, SUBCOMMANDS

    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\nSubcommands:\n", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, flags=re.M)
    assert tuple(name for name, _ in rows) == SUBCOMMANDS
    for name, flags in rows:
        documented = re.findall(r"`(-[\w-]+)` \((required|optional|default [^)]*)\)", flags)
        expected = [
            (
                flag,
                "required" if kw.get("required")
                else "optional" if kw.get("default") is None
                else f"default {kw['default']}",
            )
            for flag, kw in COMMANDS[name][0].items()
        ]
        assert documented == expected, name


def test_commands_reject_flags_they_do_not_read(capsys):
    # each flag below belongs to other commands only: a usage error here
    for argv in (
        ("defect", "--points", "1,0;0,1", "--kmax", "5", "--nvars", "9"),
        ("deformation", "--coeff-bound", "3"),
        ("smooth", "--poly", FERMAT, "--trials", "2"),
        ("special-q", "--nvars", "5"),
        ("lefschetz", "--poly", FERMAT, "--kmax", "12"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err, (argv, code, err)


def test_parameters_hold_only_the_commands_own_flags(capsys):
    """Each pinned report's parameters are the non-text dests, as parsed,
    of the flags its command's path reads (an unset --nvars left out): its
    own flags, less the draw's --trials and --coeff-bound where an explicit
    --ell is given and the draw's --trials where an explicit --g is; field
    and seed sit in the envelope.  Criterion 9 pins tests/golden to the
    CLI's output."""
    from pathlib import Path

    from gradus.cli import COMMANDS, TEXT_FLAGS, build_parser

    from .test_acceptance import CLI_CASES, criterion_9_argv

    unread_with = {"ell": {"trials", "coeff_bound"}, "g": {"trials"}}
    golden = Path(__file__).with_name("golden")
    parser = build_parser()
    for case in CLI_CASES:
        rep = json.loads((golden / f"{case[0]}.json").read_text(encoding="utf-8"))
        parsed = vars(parser.parse_args(criterion_9_argv(case)))
        own = {flag.lstrip("-").replace("-", "_") for flag in COMMANDS[case[0]][0]}
        unread = {k for flag, flags in unread_with.items() if parsed.get(flag) is not None for k in flags}
        want = {k: parsed[k] for k in own - TEXT_FLAGS - unread if parsed[k] is not None}
        assert rep["parameters"] == want, case[0]
        assert (rep["field"], rep["seed"]) == ("rational", parsed["seed"]), case[0]
    assert json.loads((golden / "lefschetz.json").read_text(encoding="utf-8"))["parameters"] == {}
    # construct-pair with an explicit witness (the pinned membership-u
    # witness of that case's cubic) reads no --trials
    f = next(case[2] for case in CLI_CASES if case[0] == "membership-u")
    g = json.loads((golden / "membership-u.json").read_text(encoding="utf-8"))["results"]["witness"]
    rep = run_json(capsys, "construct-pair", "-f", f, "--g", g, "--trials", "9", "--field", "fp:10007")
    assert rep["report"]["parameters"] == {"coeff_bound": 10, "kmax": 12, "max_perturbations": 10}
