"""Every defaulted tolerance keyword of a public gtokit function has a setter.

A ``tol`` or ``*_tol`` keyword that no call inside the package sets is a
constant in disguise: it widens the API and changes nothing.  The scan
parses ``src/gtokit/*.py`` and fails on such a keyword.  A call sets it when
it passes the keyword by name, by position, or through ``*args`` /
``**kwargs``.
"""

import ast
from pathlib import Path

import gtokit

PACKAGE = Path(gtokit.__file__).parent


def package_trees() -> list:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _defaulted_tolerances(func: ast.FunctionDef) -> dict:
    """``{keyword: position in a call, or None if keyword-only}`` for ``func``."""
    params = [a.arg for a in func.args.posonlyargs + func.args.args]
    if params[:1] in (["self"], ["cls"]):
        params = params[1:]
    defaulted = {name: k for k, name in enumerate(params) if k >= len(params) - len(func.args.defaults)}
    defaulted.update(
        (a.arg, None) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None
    )
    return {name: k for name, k in defaulted.items() if name == "tol" or name.endswith("_tol")}


def _sets(call: ast.Call, keyword: str, position) -> bool:
    if any(k.arg in (keyword, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_tolerances(trees) -> list:
    """``"function(keyword)"`` for each defaulted tolerance of a public function no call sets."""
    wanted = {}
    calls = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for keyword, position in _defaulted_tolerances(node).items():
                    wanted[node.name, keyword] = position
            elif isinstance(node, ast.Call):
                calls.append(node)
    passed = set()
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for (func, keyword), position in wanted.items():
            if func == name and _sets(call, keyword, position):
                passed.add((func, keyword))
    return sorted(f"{func}({keyword})" for func, keyword in wanted.keys() - passed)


def test_every_defaulted_tolerance_is_set_somewhere():
    assert unset_tolerances(package_trees()) == []


def test_a_planted_unset_tolerance_is_caught():
    planted = ast.parse(
        "def dilate_and_trace(system_cm, O, bath_nus, tol=1e-9): pass\n"
        "def probe(x, *, scale_tol=1.0): pass\n"
        "def set_elsewhere(x, tol=1.0): pass\n"
        "set_elsewhere(1, 2)\n"
    )
    assert unset_tolerances(package_trees() + [planted]) == ["dilate_and_trace(tol)", "probe(scale_tol)"]
