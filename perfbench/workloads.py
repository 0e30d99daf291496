"""Seeded inputs, jobs and known-answer checks for the four workloads.

The generator is this file's own code: it never calls gradus, so no module
cache of the program under test is filled before a timed job starts, and a
change to `random_poly`, `SeedStream` or the test suite cannot change a
workload.  The program receives polynomial text only.

A job is one user-visible unit: one cubic through the pair pipeline, one
cubic surveyed, or one `gradus` process.  Jobs run in units (one job, a
block of four survey draws, one CLI session of 19 processes) so that every
run has the same mix of job kinds whatever its seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

NVARS = 5
DEGREE = 3
COEFF_BOUND = 10
PRIME = 10007
MEMBERSHIP_TRIALS = 5
SMOOTH_PROFILE = (1, 5, 10, 10, 5, 1)
SURVEY_BLOCK = 4  # one singular draw in each block of four

WORKLOADS = ("pair_pipeline", "pair_pipeline_fp", "smoothness_survey", "cli_session")


class CheckFailed(Exception):
    """A job's output disagrees with its known answer."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: int or Fraction}, independent of gradus


def monomials(nvars: int, degree: int) -> list:
    """Exponent tuples of the given degree in descending lex order."""
    if nvars == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in monomials(nvars - 1, degree - first)
    ]


def format_terms(terms: dict, family: str = "x") -> str:
    pieces = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        if c == 0:
            continue
        var = "*".join(
            f"{family}{i}" if e == 1 else f"{family}{i}^{e}"
            for i, e in enumerate(mono)
            if e
        )
        pieces.append(f"{'-' if c < 0 else '+'} {abs(c)}*{var}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


_FACTOR = re.compile(r"([xy])(\d+)(?:\^(\d+))?$")


def parse_terms(text: str, nvars: int = NVARS) -> dict:
    """Parse the program's canonical printed form ("3/2*y0^2*y1 - y4^3")."""
    terms: dict = {}
    body = text.replace(" ", "").replace("-", "+-")
    for term in filter(None, body.split("+")):
        sign = -1 if term.startswith("-") else 1
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in term.lstrip("-").split("*"):
            m = _FACTOR.match(factor)
            if m:
                expo[int(m.group(2))] += int(m.group(3) or 1)
            else:
                coeff *= Fraction(factor)
        mono = tuple(expo)
        terms[mono] = terms.get(mono, 0) + coeff
    return {m: c for m, c in terms.items() if c != 0}


def partial(terms: dict, i: int) -> dict:
    out: dict = {}
    for mono, c in terms.items():
        if mono[i]:
            dm = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
            out[dm] = out.get(dm, 0) + c * mono[i]
    return out


def evaluate_mod(terms: dict, point, p: int) -> int:
    total = 0
    for mono, c in terms.items():
        v = Fraction(c)
        term = v.numerator * pow(v.denominator, -1, p)
        for x, e in zip(point, mono):
            term *= pow(x, e, p)
        total += term
    return total % p


def polar_pair(primal: dict, dual: dict, p: int | None) -> Fraction | int:
    """<x^a, y^a> = a!; exact over Q (p None) or reduced mod p."""
    total = Fraction(0)
    for mono, c in primal.items():
        g = dual.get(mono)
        if g is not None:
            w = 1
            for e in mono:
                w *= factorial(e)
            total += Fraction(c) * Fraction(g) * w
    if p is None:
        return total
    return total.numerator * pow(total.denominator, -1, p) % p


def normalized(terms: dict, p: int | None) -> dict:
    """Scale so the first coefficient in descending lex order is 1."""
    lead = terms[max(terms)]
    if p is None:
        return {m: Fraction(c) / lead for m, c in terms.items()}
    inv = pow(int(lead), -1, p)
    return {m: int(c) * inv % p for m, c in terms.items() if int(c) * inv % p}


# ---------------------------------------------------------------------------
# seeded input generation


def _rng(family: str, seed: int, index: int) -> random.Random:
    # str seeds hash with sha512: stable across processes and PYTHONHASHSEED
    return random.Random(f"{family}:{seed}:{index}")


def dense_cubic(rng: random.Random) -> dict:
    """All 35 coefficients nonzero, in [-COEFF_BOUND, COEFF_BOUND]."""
    return {
        m: rng.choice((-1, 1)) * rng.randint(1, COEFF_BOUND)
        for m in monomials(NVARS, DEGREE)
    }


def _shear(terms: dict, s) -> dict:
    """Substitute x_i -> x_i + s_i*x0 for i >= 1 (exact integer expansion)."""
    out: dict = {}
    for mono, c in terms.items():
        part = {(mono[0],) + (0,) * (NVARS - 1): c}
        for i in range(1, NVARS):
            for _ in range(mono[i]):
                nxt: dict = {}
                for m, v in part.items():
                    up = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    nxt[up] = nxt.get(up, 0) + v
                    x0 = (m[0] + 1,) + m[1:]
                    nxt[x0] = nxt.get(x0, 0) + v * s[i]
                part = nxt
        for m, v in part.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def singular_cubic(rng: random.Random):
    """Dense cubic with a node at a hidden point.

    Zeroing the x0^3 and x0^2*x_i coefficients makes F and all its partials
    vanish at e0; the shear x_i -> x_i + s_i*x0 then moves that point to
    (1, -s_1, ..., -s_4).  Returns (terms, hidden point).
    """
    terms = dense_cubic(rng)
    for m in terms:
        if m[0] >= 2:
            terms[m] = 0
    s = (0,) + tuple(rng.choice((-1, 1)) for _ in range(NVARS - 1))
    return _shear(terms, s), (1,) + tuple(-x for x in s[1:])


def pair_input(seed: int, index: int) -> dict:
    rng = _rng("pair", seed, index)
    terms = dense_cubic(rng)
    return {"text": format_terms(terms), "terms": terms, "trial_seed": rng.getrandbits(32)}


def survey_unit(seed: int, unit: int) -> list:
    """Four draws; one of them, at a seeded position, singular by construction."""
    rng = _rng("survey", seed, unit)
    odd = rng.randrange(SURVEY_BLOCK)
    out = []
    for k in range(SURVEY_BLOCK):
        if k == odd:
            terms, hidden = singular_cubic(rng)
        else:
            terms, hidden = dense_cubic(rng), None
        out.append({"text": format_terms(terms), "terms": terms, "hidden": hidden})
    return out


# The argument lists of the acceptance suite's CLI cases, each with the field
# of its JSON results that carries the known answer.
FERMAT = "x0^3+x1^3+x2^3+x3^3+x4^3"
E3 = (
    "x0*x1*x2 + x0*x1*x3 + x0*x1*x4 + x0*x2*x3 + x0*x2*x4 + x0*x3*x4 "
    "+ x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
)
POINTS = "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"
F_GOOD = "x0^3 - x1^3 + x2^3 + x3^3 + x4^3 + x0*x1*x4 + 3*x2*x3*x4 - x0*x2^2"
Q_GOOD = "x0*x1 + x2*x3 + x4^2 + 2*x0^2 - x1*x3"
CLI_CASES = (
    (("milnor-dims", "--poly", FERMAT), {"matches_reference": True}),
    (("smooth", "--poly", FERMAT), {"verdict": "smooth"}),
    (("ci-smooth", "-f", FERMAT, "-q", "x0*x1+x2*x3+x4^2"), {"verdict": "smooth"}),
    (("perp", "--poly", E3, "--k", "3"), {"dim": 10}),
    (("colon", "-f", FERMAT, "-q", "x0*x1+x2*x3+x4^2", "--k", "1"), {"dim": 0}),
    (
        ("extract-c", "-f", FERMAT, "-q", Q_GOOD),
        {"c": "y0*y1*y4 - y0*y2*y4 + y2*y3*y4", "c_smooth": "singular"},
    ),
    (("socle-pairing", "--poly", FERMAT, "--j", "2"), {"nondegenerate": True}),
    (("defect", "--points", POINTS, "--k", "2"), {"defect": 0}),
    (("lemma-defect", "--poly", E3, "--points", POINTS, "--k", "1"), {"holds": True}),
    (("special-q", "--n", "4", "--d", "3"), {"poly": E3}),
    (("singular-search", "--poly", E3, "--p", "7"), {"count": 5}),
    (("node-check", "--poly", E3, "--point", "1,0,0,0,0"), {"is_node": True}),
    (("lefschetz", "--poly", FERMAT, "--ell", "x0+x1+x2+x3+x4"), {"verdict": True}),
    (("membership-u", "--poly", F_GOOD, "--trials", "3"), {"verdict": "in_u"}),
    (("construct-pair", "-f", F_GOOD, "--trials", "3"), {"colon1_dim": 0}),
    (("verify-corollary", "-f", FERMAT, "-q", Q_GOOD), {"colon1_dim": 0}),
    (("theorem14", "--poly", F_GOOD, "--trials", "5"), {"success": True}),
    (("deformation", "--steps", "2", "--trials", "2", "--seed", "1"), {"smallest_t_in_u": "1/2"}),
    (("reproduce-example",), {"all_passed": True}),
)


def cli_argv(case) -> list:
    args = list(case)
    if "--seed" not in args:
        args += ["--seed", "3"]
    return args + ["--output", "json"]


def cli_unit(seed: int, unit: int) -> list:
    """One session: every case once, in a seeded order."""
    order = list(range(len(CLI_CASES)))
    _rng("cli", seed, unit).shuffle(order)
    return [{"case": i, "argv": cli_argv(CLI_CASES[i][0])} for i in order]


def unit_inputs(workload: str, seed: int, unit: int) -> list:
    if workload in ("pair_pipeline", "pair_pipeline_fp"):
        return [pair_input(seed, unit)]
    if workload == "smoothness_survey":
        return survey_unit(seed, unit)
    if workload == "cli_session":
        return cli_unit(seed, unit)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# jobs: each returns (seconds in the program, digest of its outputs)


def _pair_job(G, job: dict, prime: int | None, clock):
    field = G.FieldConfig.prime_field(prime) if prime else G.FieldConfig.rationals()
    t0 = clock()
    f = G.parse_poly(job["text"], field)
    um = G.membership_u(f, trials=MEMBERSHIP_TRIALS, seed=job["trial_seed"])
    cert = G.construct_pair(f, um.witness, seed=job["trial_seed"]) if um.in_u else None
    elapsed = clock() - t0

    _require(um.in_u, f"membership_u verdict {um.verdict}")
    g = parse_terms(str(um.witness))
    _require(cert.y_smooth.is_smooth, f"Y verdict {cert.y_smooth.verdict}")
    _require(cert.c_smooth.is_smooth, f"C verdict {cert.c_smooth.verdict}")
    _require(cert.colon1_dim == 0, f"colon1_dim {cert.colon1_dim}")
    _require(
        parse_terms(str(cert.c)) == normalized(g, prime),
        "C differs from the normalized witness G",
    )
    # G must pair to zero with every generator m * dF/dx_i of J_{F,3}
    for i in range(NVARS):
        d_i = partial(job["terms"], i)
        for j in range(NVARS):
            gen = {m[:j] + (m[j] + 1,) + m[j + 1 :]: c for m, c in d_i.items()}
            _require(polar_pair(gen, g, prime) == 0, f"G does not annihilate x{j}*dF/dx{i}")
    digest = [str(f), str(um.witness), str(cert.q), str(cert.c), cert.colon1_dim,
              um.trials_used, cert.perturbations_used]
    return elapsed, digest


def _survey_job(G, job: dict, clock):
    t0 = clock()
    f = G.parse_poly(job["text"], G.FieldConfig.rationals())
    cert = G.is_smooth_hypersurface(f)
    prof = G.milnor_profile(f)
    elapsed = clock() - t0

    dims = tuple(prof.dims)
    if job["hidden"] is None:
        _require(cert.verdict == "smooth", f"smooth draw judged {cert.verdict}")
        _require(dims == SMOOTH_PROFILE, f"profile {dims}")
    else:
        for i in range(NVARS):  # the generator's own promise
            _require(
                evaluate_mod(partial(job["terms"], i), job["hidden"], PRIME) == 0,
                "generator: the hidden point is not singular",
            )
        _require(cert.verdict == "singular", f"singular draw judged {cert.verdict}")
        # a singular cubic has a nonzero top Milnor piece: J_5 full implies smooth
        _require(len(dims) == 6 and dims[5] >= 1, f"profile {dims}")
        if cert.witness_point is not None:
            m = re.search(r"over F_(\d+)", cert.note)
            _require(m is not None, "witness point without its field")
            p = int(m.group(1))
            for i in range(NVARS):
                _require(
                    evaluate_mod(partial(job["terms"], i), cert.witness_point, p) == 0,
                    f"dF/dx{i} does not vanish at the witness point mod {p}",
                )
    digest = [str(f), cert.verdict, cert.field_used, cert.promoted,
              list(cert.witness_point or ()), list(dims)]
    return elapsed, digest


def _cli_job(job: dict, command: list, env: dict, cwd: str):
    t0 = time.perf_counter()
    proc = subprocess.run(
        command + job["argv"], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    elapsed = time.perf_counter() - t0

    _require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    envelope = json.loads(proc.stdout)
    results = envelope["report"]["results"]
    argv, expected = CLI_CASES[job["case"]]
    for key, want in expected.items():
        _require(results.get(key) == want, f"{argv[0]}: {key} = {results.get(key)!r}")
    digest = json.dumps(envelope["report"], sort_keys=True)
    return elapsed, digest, envelope["wall_time_ms"] / 1000.0


class ColdStateError(Exception):
    """A timed job's input was already seen in this process: caches are warm."""


class Runner:
    """Runs jobs, refusing any input this process has already run.

    With `spans_dir`, library jobs are traced in this process and CLI jobs
    run under gradus_traced.py, one span file per process.
    """

    def __init__(self, workload: str, root: str, clock, spans_dir: str | None = None):
        self.workload = workload
        self.root = root
        self.clock = clock
        self.spans_dir = spans_dir
        self.seen: set = set()
        self.tracer = None
        if workload == "cli_session":
            self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            return
        import gradus

        self.gradus = gradus
        if spans_dir is not None:
            from tracing import Tracer

            self.tracer = Tracer(clock)
            self.tracer.install()

    def _cli_command(self, job_id: int) -> list:
        if self.spans_dir is None:
            return [sys.executable, "-m", "gradus.cli"]
        shim = os.path.join(self.root, "perfbench", "gradus_traced.py")
        return [sys.executable, shim, os.path.join(self.spans_dir, f"job-{job_id}.json")]

    def run(self, job: dict, job_id: int) -> dict:
        """One job: {"s", "digest", "error"}, plus "dispatch_s" for CLI jobs."""
        out = {"s": None, "digest": None, "error": None}
        try:
            if self.workload == "cli_session":
                out["s"], out["digest"], out["dispatch_s"] = _cli_job(
                    job, self._cli_command(job_id), self.env, self.root
                )
                return out
            if job["text"] in self.seen:
                raise ColdStateError(f"input run twice in one process: {job['text'][:60]}")
            self.seen.add(job["text"])
            if self.tracer is not None:
                self.tracer.start_job(job_id)
            if self.workload == "smoothness_survey":
                out["s"], out["digest"] = _survey_job(self.gradus, job, self.clock)
            else:
                prime = PRIME if self.workload == "pair_pipeline_fp" else None
                out["s"], out["digest"] = _pair_job(self.gradus, job, prime, self.clock)
        except CheckFailed as err:
            out["error"] = f"check: {err}"
        except ColdStateError:
            raise
        except Exception as err:  # a GradusError or a crash is a failed job
            out["error"] = f"{type(err).__name__}: {err}"
        return out

    def write_spans(self):
        if self.tracer is not None:
            self.tracer.write(os.path.join(self.spans_dir, "worker.json"))
