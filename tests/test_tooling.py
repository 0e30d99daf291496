"""The benchmark's tracer wraps library functions by name and skips a name
it cannot find, whose metrics then read 0; every name it lists must exist.
It counts calls to those public functions, so a layer's own internal work
must not go through them.  Every memo cache in the library is bounded, the
smoothness checks leave `numpy.ma` unimported, only `linalg.span`
builds a `GradedSubspace`, and every module reads each name it imports."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "gradus"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for modname, attr, _ in targets:
        obj = importlib.import_module(f"gradus.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"gradus.{modname}.{attr}"


def test_rational_rref_calls_no_traced_linalg_function(monkeypatch):
    # the tracer counts calls to the public rref, rank_mod and kernel; the
    # rational rref's own modular work must not show up among them
    from gradus import FieldConfig, Matrix, SeedStream, child_seed, linalg
    from gradus.poly import random_poly

    from .oracles import jacobian_rows

    qq = FieldConfig.rationals()
    rows = jacobian_rows(random_poly(qq, SeedStream(child_seed(20260101, 3)), 5, 3, 10), 5)
    rref = linalg.rref

    def forbidden(*args, **kwargs):
        raise AssertionError("a traced linalg function was called")

    for name in ("rref", "rank_mod", "kernel"):
        monkeypatch.setattr(linalg, name, forbidden)
    assert rref(Matrix(qq, rows, 126))[2] == 125


def test_every_functools_cache_is_bounded():
    import gradus
    from gradus.linalg import CACHE_SIZE

    sizes = {}
    for info in pkgutil.iter_modules(gradus.__path__):
        module = importlib.import_module(f"gradus.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for qual, candidate in [(name, obj), *((f"{name}.{a}", v) for a, v in members)]:
                if hasattr(candidate, "cache_parameters"):
                    sizes[f"{info.name}.{qual}"] = candidate.cache_parameters()["maxsize"]
    assert {"poly.product_index", "poly.monomials", "poly.monomial_index"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size != CACHE_SIZE} == {}


def test_smoothness_checks_leave_numpy_ma_unimported():
    # numpy.ma costs about 1.5 MB of resident memory; np.unique imports it
    code = (
        "import sys, gradus\n"
        "qq = gradus.FieldConfig.rationals()\n"
        "f = gradus.fermat_form(qq, 5, 3)\n"
        "assert gradus.is_smooth_hypersurface(f).is_smooth\n"
        "assert gradus.ci_smooth(f, gradus.parse_poly('x0*x1+x2*x3+x4^2', qq)).is_smooth\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class _ConstructorCalls(ast.NodeVisitor):
    """Dotted names of the definitions that call `GradedSubspace(...)`."""

    def __init__(self, module: str):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "GradedSubspace":
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_span_builds_a_graded_subspace():
    # `GradedSubspace.reduce` trusts `pivots`, which only `span` reads off
    # the rref of the basis
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _ConstructorCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
    assert found == {"linalg.span"}


def test_every_module_uses_what_it_imports():
    # a name imported but never read is left over from deleted code
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []
