"""No call inside the library drops a tolerance.

A library function that takes ``tol`` and is called without it runs at
``DEFAULT_TOL``, whatever tolerance the caller was given, and nothing at run
time shows it. This test parses ``src/fusionframes`` and names every call to
such a function that passes ``tol`` neither by position nor by keyword.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fusionframes"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def _tol_position(fn: ast.FunctionDef) -> int | None:
    """Index of ``tol`` among the positional parameters, -1 when keyword-only, None when absent."""
    positional = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
    if "tol" in positional:
        return positional.index("tol")
    return -1 if "tol" in (a.arg for a in fn.args.kwonlyargs) else None


def _tol_takers(trees) -> dict[str, int]:
    takers = {}
    for tree in trees.values():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (position := _tol_position(fn)) is not None:
                takers[fn.name] = position
    return takers


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _drops_tol(call: ast.Call, position: int) -> bool:
    if any(k.arg in ("tol", None) for k in call.keywords):  # None is a ``**kwargs`` pass-through
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return position < 0 or len(call.args) <= position


def dropped_tolerances(trees) -> list[str]:
    takers = _tol_takers(trees)
    return [
        f"{name}:{call.lineno} {_callee(call)}"
        for name, tree in trees.items()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and _callee(call) in takers and _drops_tol(call, takers[_callee(call)])
    ]


def test_no_library_call_drops_a_tolerance():
    assert dropped_tolerances(_trees()) == []


def test_the_check_sees_positional_keyword_and_missing_tolerances():
    source = """
def f(x, tol=None):
    return x

def g(x, *, tol=None):
    return x

def h(tol):
    f(1, tol)
    f(1, tol=tol)
    g(1, tol=tol)
    f(1)
    g(1)
"""
    found = dropped_tolerances({"m.py": ast.parse(source)})
    assert found == ["m.py:12 f", "m.py:13 g"]
