"""Spans around the calls into each gradus module, taken from outside.

`install()` wraps the public functions listed in TARGETS and rebinds every
name that refers to them in every loaded gradus module (`from .linalg import
rref` binds a separate name per module, so patching `linalg.rref` alone
would miss most callers).  Each call records a span

    [name, start, end, cover_end, parent span, job id, extra]

in memory; `write()` dumps them as JSON at the end of the process.
`cover_end` is taken after the span's own bookkeeping (for instance the bit
size of an rref result), so that bookkeeping is charged to nobody's self
time.  `layer_metrics()` derives per-job calls, self times and the named
counters from one or more span files.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, metric prefix or a function of the call's arguments)
TARGETS = (
    ("linalg", "GradedSubspace.reduce", "linalg.reduce"),
    ("linalg", "rref", lambda a, kw: "linalg.rref_qq" if a[0].field.is_rational else "linalg.rref_fp"),
    ("linalg", "rank_mod", "linalg.rank_mod"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "span", "linalg.span"),
    ("jacobian", "jacobian_graded", "jacobian.jacobian_graded"),
    ("jacobian", "is_smooth_hypersurface", "jacobian.is_smooth_hypersurface"),
    ("jacobian", "milnor_profile", "jacobian.milnor_profile"),
    ("jacobian", "ci_smooth", "jacobian.ci_smooth"),
    ("apolarity", "colon_graded", "apolarity.colon_graded"),
    ("apolarity", "perp_graded", "apolarity.perp_graded"),
    ("apolarity", "socle_functional", "apolarity.socle_functional"),
    ("apolarity", "annihilator_quadric", "apolarity.annihilator_quadric"),
    ("apolarity", "extract_c", "apolarity.extract_c"),
    ("apolarity", "macaulay_pairing_matrix", "apolarity.macaulay_pairing_matrix"),
    ("lefschetz", "mult_map", "lefschetz.mult_map"),
    ("lefschetz", "slp_search", "lefschetz.slp_search"),
    ("defects", "brute_singular_search", "defects.brute_singular_search"),
    ("defects", "defect", "defects.defect"),
    ("pipeline", "membership_u", "pipeline.membership_u"),
    ("pipeline", "construct_pair", "pipeline.construct_pair"),
    ("pipeline", "theorem14_check", "pipeline.theorem14_check"),
    ("pipeline", "deformation_experiment", "pipeline.deformation_experiment"),
    ("pipeline", "reproduce_example", "pipeline.reproduce_example"),
    ("poly", "parse_poly", "poly.parse_poly"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "polar_pair", "poly.polar_pair"),
    ("report", "report_json", "report.report_json"),
)


def _rref_extra(tr, args, kw, result):
    m = args[0]
    extra = {"cells": m.nrows * m.ncols}
    if m.field.is_rational:
        extra["max_bits"] = max(
            (max(x.numerator.bit_length(), x.denominator.bit_length())
             for row in result[0].rows for x in row),
            default=0,
        )
    return extra


def _rank_mod_extra(tr, args, kw, result):
    rows, ncols = args[0], args[1]
    target = kw.get("target", args[3] if len(args) > 3 else None)
    return {"cells": len(rows) * ncols, "targeted": target is not None,
            "full": target is not None and result == target}


def _repeat_extra(key_of):
    def extra(tr, args, kw, result):
        return {"repeat": tr.seen_in_job(key_of(args, kw))}
    return extra


def _smooth_extra(tr, args, kw, result):
    return {"promoted": bool(result.promoted),
            "exact": args[0].field.is_rational and result.field_used == "rational"}


def _points_extra(tr, args, kw, result):
    n, p = args[0].nvars, args[1]
    return {"points": (p**n - 1) // (p - 1)}


EXTRAS = {
    "linalg.rref_qq": _rref_extra,
    "linalg.rref_fp": _rref_extra,
    "linalg.rank_mod": _rank_mod_extra,
    "jacobian.jacobian_graded": _repeat_extra(lambda a, kw: ("jac", a[0].key(), a[1])),
    "apolarity.colon_graded": _repeat_extra(lambda a, kw: ("colon", a[0].key(), a[1].key(), a[2])),
    "jacobian.is_smooth_hypersurface": _smooth_extra,
    "defects.brute_singular_search": _points_extra,
    "pipeline.membership_u": lambda tr, a, kw, r: {"trials_used": r.trials_used},
    "pipeline.construct_pair": lambda tr, a, kw, r: {"perturbations_used": r.perturbations_used},
}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self._seen: set = set()

    def start_job(self, job_id):
        self.job = job_id
        self._seen = set()

    def seen_in_job(self, key) -> bool:
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, self.clock
        fixed = None if callable(name) else self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = fixed if fixed is not None else self._name_index(name(args, kwargs))
            rec = [label, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = rec[3] = clock()
                stack.pop()
            extra = EXTRAS.get(self.names[label])
            if extra is not None:
                try:
                    rec[6] = extra(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call's shape changed: its counters read 0
                rec[3] = clock()
            return result

        return traced

    def install(self):
        """Wrap every target that exists; a missing one reads 0 in the metrics."""
        mods = {n: m for n, m in sys.modules.items() if n == "gradus" or n.startswith("gradus.")}
        for modname, attr, name in TARGETS:
            mod = mods.get(f"gradus.{modname}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(orig, name)
            if owner_name:
                setattr(owner, leaf, wrapped)
            else:
                for m in mods.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    def write(self, path: str, meta: dict | None = None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "meta": meta or {}}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from span files

CALLS_AND_SELF = (
    "linalg.reduce", "linalg.rref_qq", "linalg.rref_fp", "linalg.rank_mod",
    "linalg.kernel", "linalg.span",
    "jacobian.jacobian_graded", "jacobian.is_smooth_hypersurface",
    "jacobian.milnor_profile", "jacobian.ci_smooth",
    "apolarity.colon_graded", "apolarity.perp_graded", "apolarity.socle_functional",
    "apolarity.annihilator_quadric", "apolarity.extract_c",
    "apolarity.macaulay_pairing_matrix",
    "lefschetz.mult_map", "lefschetz.slp_search",
    "defects.brute_singular_search", "defects.defect",
    "pipeline.membership_u", "pipeline.construct_pair", "pipeline.theorem14_check",
    "pipeline.deformation_experiment", "pipeline.reproduce_example",
    "poly.parse_poly", "poly.mul", "poly.polar_pair", "report.report_json",
)

# metric name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {}
for _n in CALLS_AND_SELF:
    PER_LAYER[f"{_n}.calls"] = ("count", "lower")
    PER_LAYER[f"{_n}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "linalg.rref_qq.cells": ("count", "lower"),
    "linalg.rref_qq.max_bits": ("bits", "lower"),
    "linalg.rref_fp.cells": ("count", "lower"),
    "linalg.rank_mod.cells": ("count", "lower"),
    "linalg.rank_mod.full_frac": ("ratio", "higher"),
    "jacobian.jacobian_graded.repeat_frac": ("ratio", "lower"),
    "jacobian.is_smooth_hypersurface.promoted_frac": ("ratio", "higher"),
    "jacobian.is_smooth_hypersurface.exact_fallback_s": ("s", "lower"),
    "jacobian.ci_smooth.sweep_degrees": ("count", "lower"),
    "apolarity.colon_graded.repeat_frac": ("ratio", "lower"),
    "defects.brute_singular_search.points": ("count", "lower"),
    "pipeline.membership_u.trials_used": ("count", "lower"),
    "pipeline.construct_pair.perturbations_used": ("count", "lower"),
    "cli.process_s": ("s", "lower"),
    "cli.dispatch_s": ("s", "lower"),
    "cli.outside_dispatch_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.jobs": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(span_files, jobs: int, scale: float, cli: dict | None = None,
                  overhead: float = 0.0) -> dict:
    """Per-job means over the traced jobs (fractions and max_bits are not
    divided); times are multiplied by `scale`, the run's factor to the
    reference speed.  `cli` carries process, dispatch and import seconds."""
    calls: dict = {}
    self_s: dict = {}
    sums: dict = {}
    max_bits = 0

    def add(key, v):
        sums[key] = sums.get(key, 0) + v

    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        child_cover = [0.0] * len(spans)
        for name_i, start, end, cover, parent, job, extra in spans:
            if parent >= 0:
                child_cover[parent] += cover - start
        for i, (name_i, start, end, cover, parent, job, extra) in enumerate(spans):
            name = names[name_i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_cover[i]
            extra = extra or {}
            for key in ("cells", "points", "trials_used", "perturbations_used"):
                if key in extra:
                    add(f"{name}.{key}", extra[key])
            for key in ("repeat", "promoted", "targeted", "full"):
                if extra.get(key):
                    add(f"{name}.{key}", 1)
            if extra.get("exact"):
                add(f"{name}.exact_s", end - start)
            max_bits = max(max_bits, extra.get("max_bits", 0))
            if name == "linalg.rank_mod":
                p = parent
                while p >= 0:
                    if names[spans[p][0]] == "jacobian.ci_smooth":
                        add("ci_sweep", 1)
                        break
                    p = spans[p][4]

    per_job = max(jobs, 1)
    per_job_s = per_job / scale
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls.get(name, 0) / per_job
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / per_job_s
    out["linalg.rref_qq.cells"] = sums.get("linalg.rref_qq.cells", 0) / per_job
    out["linalg.rref_qq.max_bits"] = max_bits
    out["linalg.rref_fp.cells"] = sums.get("linalg.rref_fp.cells", 0) / per_job
    out["linalg.rank_mod.cells"] = sums.get("linalg.rank_mod.cells", 0) / per_job
    out["linalg.rank_mod.full_frac"] = _ratio(
        sums.get("linalg.rank_mod.full", 0), sums.get("linalg.rank_mod.targeted", 0))
    for name in ("jacobian.jacobian_graded", "apolarity.colon_graded"):
        out[f"{name}.repeat_frac"] = _ratio(sums.get(f"{name}.repeat", 0), calls.get(name, 0))
    smooth = "jacobian.is_smooth_hypersurface"
    out[f"{smooth}.promoted_frac"] = _ratio(sums.get(f"{smooth}.promoted", 0), calls.get(smooth, 0))
    out[f"{smooth}.exact_fallback_s"] = sums.get(f"{smooth}.exact_s", 0.0) / per_job_s
    out["jacobian.ci_smooth.sweep_degrees"] = sums.get("ci_sweep", 0) / per_job
    for key in ("defects.brute_singular_search.points", "pipeline.membership_u.trials_used",
                "pipeline.construct_pair.perturbations_used"):
        out[key] = sums.get(key, 0) / per_job
    cli = cli or {}
    process, dispatch = cli.get("process_s", 0.0), cli.get("dispatch_s", 0.0)
    out["cli.process_s"] = process / per_job_s
    out["cli.dispatch_s"] = dispatch / per_job_s
    out["cli.outside_dispatch_s"] = (process - dispatch) / per_job_s
    out["cli.import_s"] = cli.get("import_s", 0.0) / per_job_s
    out["trace.jobs"] = jobs
    out["trace.overhead_frac"] = overhead
    assert set(out) == set(PER_LAYER)
    return out
