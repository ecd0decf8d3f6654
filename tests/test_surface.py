"""The library's surface: what ``src/sicnet`` defines, the library or the
benchmark uses, the oracles that only the tests call live in
``tests/oracles.py``, the simulator signatures that the benchmark's
tracer binds, and what the simulators import."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from sicnet import montecarlo

ROOT = Path(__file__).resolve().parents[1]

# Reached by the tests alone: they leave the library only once ROADMAP
# item 8 settles that no acceptance gate will call them.
TEST_ONLY = {"tsd_cumulant", "tsd_conditional_cancel_prob"}


def _referenced(node) -> set[str]:
    """Every name that ``node`` reads: a plain name, an attribute, or an
    imported name (under its own name, whatever its alias)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _defined(stmt) -> list[str]:
    """The names that a module-level statement defines: a function, a class
    or the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_library_defines_only_what_library_or_bench_uses():
    modules = sorted((ROOT / "src" / "sicnet").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in modules + sorted((ROOT / "bench").glob("*.py"))
    }
    # a name that __init__.py re-exports is not thereby used
    uses = [
        (stmt, _referenced(stmt))
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for stmt in tree.body
    ]
    assert modules and any(path.parent.name == "bench" for path in trees)
    unused = sorted(
        f"{path.name}:{name}"
        for path in modules
        for stmt in trees[path].body
        for name in _defined(stmt)
        if name not in TEST_ONLY
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for other, names in uses if other is not stmt)
    )
    assert not unused, unused

    # the scalar oracles share no code with the closed forms or with the
    # vectorized chain they check
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(oracles):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not {m for m in imported if "analytic" in m.split(".")}
    assert not {"_reached", "_chain_exponent"} & _referenced(oracles)


def test_traced_simulators_bind_their_library_signature():
    # the tracer binds each simulator's arguments by signature, counts its
    # trials and names its variant from them; a dropped or renamed parameter
    # would otherwise show only in a traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SIMULATORS
    for name, variant_of in tracing.SIMULATORS.items():
        sig = inspect.signature(getattr(montecarlo, name))
        bound = sig.bind(
            **{p.name: None for p in sig.parameters.values() if p.default is p.empty}
        )
        bound.apply_defaults()
        assert "trials" in bound.arguments, name
        assert name + variant_of(bound.arguments) in tracing.SIM_VARIANTS, name


def test_chain_simulator_imports_no_scipy_stats():
    # the bench's chain_mc set-up probe makes these two calls in a fresh
    # interpreter; importing scipy.stats there would add about 0.5 s to its
    # setup_s
    code = "\n".join((
        "import sys",
        "from sicnet import montecarlo as mc",
        "mc.ps_sic_curve_mc(1e-4, 1e-4, 4.0, [1.0], 1, 16, 0)",
        "mc.ps_sic_curve_mc(1e-4, 1e-4, 4.0, [1.0], 1, 16, 0, independent_stages=True)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
