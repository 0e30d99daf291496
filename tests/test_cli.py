import json

from gradus import FieldConfig, parse_poly
from gradus.cli import main

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
    rejected = [
        ("membership-u", "--poly", "x0^3+x1^3+x2^3", "--coeff-bound", "0"),
        ("perp", "--poly", FERMAT, "--k", "-1"),
        ("colon", "-f", FERMAT, "-q", QUADRIC, "--k", "-3"),
        ("ci-smooth", "-f", FERMAT, "-q", QUADRIC, "--kmax", "-4"),
        ("membership-u", "--poly", "x0^3+x1^3+x2^3", "--trials", "0"),
        ("theorem14", "--poly", FERMAT, "--trials", "0"),
        ("deformation", "--trials", "0"),
    ]
    for argv in rejected:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("gradus: "), (argv, code, err)
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
    assert rep["report"]["schema_version"] == "1"
    assert rep["report"]["inputs"]["poly"].startswith("sha256:")
    assert rep["report"]["command"] == "smooth"
    assert "wall_time_ms" in rep
