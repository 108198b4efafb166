"""Every function the benchmark's tracer reads by name is a public function of its module.

``perfbench/tracing.py`` turns spans named "module.function" into per-layer
metrics, and a name that no longer exists silently reads 0.  This reads the
file's source, without importing it, and checks each such name against the
package.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    # dotted string literals whose first part is a traced module, less the
    # metric names, which are the keys of the file's dict literals
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (modules,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODULES"
    ]
    nodes = list(ast.walk(tree))
    keys = {k.value for node in nodes if isinstance(node, ast.Dict) for k in node.keys if isinstance(k, ast.Constant)}
    names = set()
    for node in nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value not in keys:
            module, dot, function = node.value.partition(".")
            if dot and module in modules and function.isidentifier():
                names.add(node.value)
    return names


def test_traced_names_are_public_functions_of_their_modules():
    names = _traced_names()
    # the names the scan, solver, oracle and loss metrics rest on
    assert {
        "analytic.refine_candidate",
        "analytic.origin_directional_derivatives",
        "analytic.scan_stationary_points",
        "dro.worst_case_dual_from_distances",
        "solve.minimize",
        "losses.smoothed_ramp",
    } <= names
    for name in sorted(names):
        module_name, function = name.split(".")
        module = importlib.import_module(f"rampdro.{module_name}")
        obj = getattr(module, function, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
        assert not function.startswith("_"), name
