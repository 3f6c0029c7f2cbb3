"""Every name in a module's ``__all__`` must exist, and the package root must re-export them.

The traced benchmark wraps each function in a module's ``__all__`` through
``getattr``, so an entry left behind by a removed class or function would
otherwise fail only in the traced run. The README's library-only list must
name exactly the public functions that no command reaches, and every bare
name it puts in backticks must be a current public name; other code names
are written qualified, as ``np.linalg.eigvalsh``.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import fusionframes

ROOT = Path(__file__).resolve().parent.parent

LIBRARY = ("linalg", "fusion", "discrete", "duality", "erasures", "optimality")
# the command-line layer is imported as ``fusionframes.cli``; the root does not load it
MODULES = (*LIBRARY, "cli")


def _is_api(value) -> bool:
    return inspect.isfunction(value) or inspect.isclass(value)


def test_every_listed_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"fusionframes.{name}")
        assert len(set(module.__all__)) == len(module.__all__), f"fusionframes.{name}.__all__ repeats a name"
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"fusionframes.{name}.__all__ lists undefined names {missing}"


def test_package_root_reexports_exactly_the_listed_functions_and_classes():
    listed = {}
    for name in LIBRARY:
        module = importlib.import_module(f"fusionframes.{name}")
        listed.update((attr, getattr(module, attr)) for attr in module.__all__)
    root = {attr: value for attr, value in vars(fusionframes).items() if not attr.startswith("_") and _is_api(value)}
    expected = {attr: value for attr, value in listed.items() if _is_api(value)}
    assert root.keys() == expected.keys()
    assert all(root[attr] is value for attr, value in expected.items())
    # every other listed name, constants and type aliases such as NormKind included, is re-exported too
    absent = [attr for attr, value in listed.items() if getattr(fusionframes, attr, None) is not value]
    assert absent == []


def _module_scopes() -> dict:
    """Per module, each top-level name: its def, class or assignment node, or the ``(module, name)`` it imports."""
    scopes = {}
    for path in (ROOT / "src" / "fusionframes").glob("*.py"):
        names = scopes[path.stem] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update((alias.asname or alias.name, (node.module, alias.name)) for alias in node.names)
            elif isinstance(node, ast.Assign):
                names.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    return scopes


def _reached_from_cli(scopes: dict) -> set:
    """Every ``(module, name)`` that a name in ``cli.py`` leads to, through imports and the bodies of the
    functions and classes (methods included) it names, transitively."""
    reached, todo = set(), [("cli", name) for name in scopes["cli"]]
    while todo:
        module, name = todo.pop()
        node = scopes[module].get(name)
        while isinstance(node, tuple):
            module, name = node
            node = scopes[module].get(name)
        if node is not None and (module, name) not in reached:
            reached.add((module, name))
            todo += [(module, n.id) for n in ast.walk(node) if isinstance(n, ast.Name)]
    return reached


def test_readme_library_only_list_names_every_function_no_command_reaches():
    scopes = _module_scopes()
    public = {
        (name, attr)
        for name in LIBRARY
        for attr in importlib.import_module(f"fusionframes.{name}").__all__
        if isinstance(scopes[name].get(attr), ast.FunctionDef)
    }
    unreached = {attr for name, attr in public - _reached_from_cli(scopes)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Library-only API:.*?(?=^Conventions worth knowing:)", readme, re.S | re.M).group(0)
    bare = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    listed = {attr for name in LIBRARY for attr in importlib.import_module(f"fusionframes.{name}").__all__}
    assert bare <= listed, f"README names {sorted(bare - listed)}, which are not public names"
    named = bare & {attr for _, attr in public}
    assert named == unreached, f"README names {sorted(named - unreached)} in excess, misses {sorted(unreached - named)}"
