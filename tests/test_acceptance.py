"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from gradus import (
    FieldConfig,
    Matrix,
    PointSet,
    Polynomial,
    SeedStream,
    brute_singular_search,
    check_lemma_defect,
    colon_graded,
    defect,
    fermat_form,
    graded_dim,
    is_node,
    jacobian_graded,
    kernel,
    macaulay_pairing_matrix,
    milnor_dim,
    milnor_profile,
    monomials,
    parse_poly,
    perp_graded,
    polar_pair,
    random_scalar,
    rank,
    singular_points,
    slp_search,
    smooth_reference_dims,
    span,
    theorem14_check,
)
from gradus.cli import main as cli_main

from .oracles import brute_colon_basis, naive_rank

QQ = FieldConfig.rationals()
FP = FieldConfig.prime_field(10007)


def _announce(n, text):
    print(f"\n[ACCEPTANCE] criterion {n}: PASS - {text}")


def _coordinate_points():
    return PointSet.from_raw(
        QQ, 5, [[1 if i == j else 0 for i in range(5)] for j in range(5)]
    )


def test_criterion_1_golden_example(special_cubic):
    q = special_cubic
    assert milnor_dim(q, 3) == 10
    perp = perp_graded(jacobian_graded(q, 3))
    assert perp.dim == 10

    fy = fermat_form(QQ, 5, 3, family="y")
    for row in jacobian_graded(q, 3).basis.rows:
        b = Polynomial.from_vector(QQ, 5, "x", 3, row)
        assert polar_pair(b, fy) == 0

    pure = {tuple(4 if i == j else 0 for i in range(5)) for j in range(5)}
    rows = []
    for i, m in enumerate(monomials(5, 4)):
        if m in pure:
            continue
        vec = [QQ.zero] * graded_dim(5, 4)
        vec[i] = QQ.one
        rows.append(vec)
    w = span(QQ, 5, 4, "x", rows)
    assert w.dim == 65 and jacobian_graded(q, 4) == w

    cands = _coordinate_points()
    assert len(singular_points(q, cands)) == 5
    found = brute_singular_search(q, 7)
    assert set(found.points) == {
        tuple(1 if i == j else 0 for i in range(5)) for j in range(5)
    }
    assert all(is_node(q, pt) for pt in cands.points)
    for k in (1, 2, 3, 4):
        assert defect(cands, k).defect == 0
    _announce(1, "golden example values all exact")


def test_criterion_2_reference_dims(smooth_cubics):
    ref = smooth_reference_dims(5, 3)
    assert ref == [1, 5, 10, 10, 5, 1]
    assert len(smooth_cubics) >= 20
    for f in smooth_cubics:
        assert list(milnor_profile(f).dims) == ref
    _announce(2, f"Hilbert-series dims match for {len(smooth_cubics)} seeded smooth cubics")


def test_criterion_3_dimension_identity(special_cubic):
    pts = _coordinate_points()
    for k in (0, 1, 2, 3):
        rep = check_lemma_defect(special_cubic, pts, k)
        assert rep.holds, rep.as_dict()
    rep0 = check_lemma_defect(special_cubic, pts, 0)
    assert (rep0.lhs, rep0.reference_dim, rep0.defect) == (5, 1, 4)
    assert milnor_dim(special_cubic, 5) == 5
    _announce(3, "identity holds at k=0..3 including the defect-4 case")


def test_criterion_4_lefschetz_witnesses(smooth_cubics):
    assert len(smooth_cubics) >= 20
    failures = []
    for f in smooth_cubics:
        res = slp_search(f, trials=5, seed=0)
        if not res.found:
            failures.append(f)
            continue
        ranks = {k: v[2] for k, v in res.profile.per_k.items()}
        assert ranks == {0: 1, 1: 5, 2: 10}
    assert not failures, f"{len(failures)} anomalies: inputs without a witness"
    _announce(4, f"full-rank witnesses found for all {len(smooth_cubics)} cubics")


def test_criterion_5_pair_pipeline(u_pairs):
    assert len(u_pairs) >= 10
    stream = SeedStream(515)
    for f, um, cert in u_pairs:
        assert cert.y_smooth.is_smooth and cert.y_smooth.degree <= 12
        assert cert.c == um.witness.normalized()
        assert cert.c_smooth.is_smooth
        # colon invariance under an explicit Jacobian perturbation
        pert = Polynomial.zero(QQ, 5)
        for i in range(5):
            pert = pert + f.partial(i).scale(random_scalar(QQ, stream, 10))
        assert colon_graded(f, cert.q, 3) == colon_graded(f, cert.q + pert, 3)
    _announce(5, f"{len(u_pairs)} constructed pairs certified end to end")


def test_criterion_6_injectivity_experiment(smooth_cubics):
    count = 0
    for f in smooth_cubics[:10]:
        rep = theorem14_check(f, trials=5, seed=5)
        assert rep.success, rep.as_dict()
        assert rep.colon1_dim == 0
        assert rep.y_smooth.is_smooth
        assert colon_graded(f, rep.q_witness, 1).dim == 0
        count += 1
    assert count >= 10
    _announce(6, f"linear and quadric injectivity witnesses for {count} cubics")


def test_criterion_7_macaulay_nondegeneracy(smooth_cubics, u_pairs):
    suite = list(smooth_cubics) + [f for f, _, _ in u_pairs]
    seen = set()
    checked = 0
    for f in suite:
        key = f.key()
        if key in seen:
            continue
        seen.add(key)
        m = macaulay_pairing_matrix(f, 2)
        assert (m.nrows, m.ncols) == (10, 10) and rank(m) == 10
        checked += 1
    _announce(7, f"degree-2 socle pairing nonsingular for {checked} smooth forms")


def test_criterion_8_oracle_equivalence():
    stream = SeedStream(808)
    for trial in range(100):
        nrows = stream.randint(1, 50)
        ncols = stream.randint(1, 70)
        ints = [
            [stream.randint(-10, 10) for _ in range(ncols)] for _ in range(nrows)
        ]
        mq = Matrix(QQ, [[Fraction(x) for x in row] for row in ints], ncols)
        assert rank(mq) == naive_rank(mq.rows, QQ)
        mp = Matrix(FP, [[x % 10007 for x in row] for row in ints], ncols)
        assert rank(mp) == naive_rank(mp.rows, FP)
        null = kernel(mq)
        assert null.nrows == ncols - naive_rank(mq.rows, QQ)

    # colon vs brute-force stacked system on a projective plane
    f1 = parse_poly("x0^4 + x1^4 + x2^4 + x0*x1*x2^2", QQ)
    f2 = parse_poly("x0^3*x1 + x1^3*x2 + x2^3*x0 - x0^2*x1^2", QQ)
    cases = [
        (f1, parse_poly("x0^2 + x1*x2", QQ), 1),
        (f1, parse_poly("x0*x1 - 2*x2^2", QQ), 2),
        (f2, parse_poly("x0^2 - x1^2 + x2^2", QQ), 1),
        (f2, parse_poly("x1^2 + 3*x0*x2", QQ), 2),
    ]
    for f, q, k in cases:
        assert colon_graded(f, q, k) == brute_colon_basis(f, q, k)
    _announce(8, "rank/kernel and colon agree with independent oracles")


CLI_CASES = [
    ("milnor-dims", "--poly", "x0^3+x1^3+x2^3+x3^3+x4^3"),
    ("smooth", "--poly", "x0^3+x1^3+x2^3+x3^3+x4^3"),
    ("ci-smooth", "-f", "x0^3+x1^3+x2^3+x3^3+x4^3", "-q", "x0*x1+x2*x3+x4^2"),
    (
        "perp",
        "--poly",
        "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
        "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4",
        "--k",
        "3",
    ),
    ("colon", "-f", "x0^3+x1^3+x2^3+x3^3+x4^3", "-q", "x0*x1+x2*x3+x4^2", "--k", "1"),
    ("extract-c", "-f", "x0^3+x1^3+x2^3+x3^3+x4^3", "-q", "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3"),
    ("socle-pairing", "--poly", "x0^3+x1^3+x2^3+x3^3+x4^3", "--j", "2"),
    ("defect", "--points", "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1", "--k", "2"),
    (
        "lemma-defect",
        "--poly",
        "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
        "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4",
        "--points",
        "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1",
        "--k",
        "1",
    ),
    ("special-q", "--n", "4", "--d", "3"),
    (
        "singular-search",
        "--poly",
        "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
        "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4",
        "--p",
        "7",
    ),
    (
        "node-check",
        "--poly",
        "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
        "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4",
        "--point",
        "1,0,0,0,0",
    ),
    ("lefschetz", "--poly", "x0^3+x1^3+x2^3+x3^3+x4^3", "--ell", "x0+x1+x2+x3+x4"),
    ("membership-u", "--poly", "x0^3 - x1^3 + x2^3 + x3^3 + x4^3 + x0*x1*x4 + 3*x2*x3*x4 - x0*x2^2", "--trials", "3"),
    (
        "construct-pair",
        "-f",
        "x0^3 - x1^3 + x2^3 + x3^3 + x4^3 + x0*x1*x4 + 3*x2*x3*x4 - x0*x2^2",
        "--trials",
        "3",
    ),
    (
        "verify-corollary",
        "-f",
        "x0^3+x1^3+x2^3+x3^3+x4^3",
        "-q",
        "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3",
    ),
    (
        "theorem14",
        "--poly",
        "x0^3 - x1^3 + x2^3 + x3^3 + x4^3 + x0*x1*x4 + 3*x2*x3*x4 - x0*x2^2",
        "--trials",
        "5",
    ),
    ("deformation", "--steps", "2", "--trials", "2", "--seed", "1"),
    ("reproduce-example",),
]


GOLDEN = Path(__file__).with_name("golden")


def criterion_9_argv(case):
    argv = list(case) + ["--seed", "3"] if "--seed" not in case else list(case)
    return argv + ["--output", "json"]


def test_criterion_9_cli_determinism(capsys):
    seen_commands = set()
    differs = []
    for case in CLI_CASES:
        seen_commands.add(case[0])
        argv = criterion_9_argv(case)
        payloads = []
        for _ in range(2):
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, f"{case[0]} exited {code}"
            payloads.append(json.dumps(json.loads(out)["report"], sort_keys=True))
        assert payloads[0] == payloads[1], f"nondeterministic report: {case[0]}"
        # pinned across changes: tests/golden holds the report of each case
        golden = json.loads((GOLDEN / f"{case[0]}.json").read_text(encoding="utf-8"))
        if payloads[0] != json.dumps(golden, sort_keys=True):
            differs.append(f"tests/golden/{case[0]}.json")
    assert not differs, f"reports differ from {', '.join(differs)}"
    from gradus.cli import SUBCOMMANDS

    assert seen_commands == set(SUBCOMMANDS)
    _announce(
        9,
        f"double-run byte-identical reports, equal to tests/golden, "
        f"for all {len(seen_commands)} subcommands",
    )
