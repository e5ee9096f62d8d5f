"""The benchmark traces, imports and patches quadgait names: every one
of them must resolve, so a rename or a move fails here rather than in a
benchmark run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    sys.path.insert(0, str(PERFBENCH))   # layers.py imports its sibling tracing.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_names_resolve():
    layers = _layers()
    targets = layers.ALL + layers.PROBE
    assert targets
    for module_name, attr, _span in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def _quadgait_names():
    """(module, attribute or None, where) for every `from quadgait.X import
    Y`, `import quadgait.X` and `<tracer>.patch(quadgait.X, "Y", ...)` in
    the benchmark's sources."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quadgait":
                found += [(node.module, alias.name, where) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None, where) for alias in node.names
                          if alias.name.split(".")[0] == "quadgait"]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "patch" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                owner = ast.unparse(node.args[0])
                if owner.split(".")[0] == "quadgait":
                    found.append((owner, node.args[1].value, where))
    return found


def test_benchmark_imports_resolve():
    # a name the benchmark imports or patches that the package no longer
    # has would fail every workload at its first import
    names = _quadgait_names()
    assert ("quadgait.dataset", "usable_cpus") in {(m, a) for m, a, _ in names}
    for module_name, attr, where in names:
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), f"{where}: {module_name}.{attr}"
