"""Every name in a module's ``__all__`` must exist, and the package root must re-export them.

The traced benchmark wraps each function in a module's ``__all__`` through
``getattr``, so an entry left behind by a removed class or function would
otherwise fail only in the traced run.
"""

import importlib
import inspect

import fusionframes

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
