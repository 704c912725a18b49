"""``feasible`` and protocol ``cool`` start without numpy, by construction.

The scan parses ``src/gtokit/*.py`` for the imports each module runs when it
is loaded: every import outside a function body.  A module is numpy-backed
when it imports numpy, or a numpy-backed gtokit module, that way.  The scan
fails if the scalar rules, ``feasibility``, ``cli`` or the package's
``__init__`` is numpy-backed; an import inside a function, as in each of
``cli``'s numpy subcommands, runs only when that function does.
"""

import ast
from pathlib import Path

import pytest

import gtokit

PACKAGE = Path(gtokit.__file__).parent
NUMPY_FREE = {"__init__", "cli", "feasibility", "scalar"}


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _imported(dotted: str, modules) -> str:
    """The gtokit module (``__init__`` for the package) or the top-level package a dotted name imports."""
    parts = dotted.split(".")
    if parts[0] != "gtokit":
        return parts[0]
    return parts[1] if len(parts) > 1 and parts[1] in modules else "__init__"


def load_time_imports(source: str, modules) -> set:
    """What a module imports when it is loaded: packages and gtokit modules."""
    found = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {_imported(a.name, modules) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "gtokit" if node.level else ""
            if node.module:
                found.add(_imported(".".join(filter(None, (base, node.module))), modules))
            else:  # from . import name: a submodule, or a name of the package
                found |= {_imported(f"gtokit.{a.name}", modules) for a in node.names}
        stack.extend(ast.iter_child_nodes(node))
    return found


def numpy_backed(sources: dict) -> set:
    """The modules that load numpy when they are loaded, directly or through another gtokit module."""
    imports = {module: load_time_imports(source, sources) for module, source in sources.items()}
    backed = set()
    while True:
        more = {module for module, names in imports.items() if names & (backed | {"numpy"})} - backed
        if not more:
            return backed
        backed |= more


def test_the_single_mode_path_loads_no_numpy():
    backed = numpy_backed(package_sources())
    assert backed & NUMPY_FREE == set()
    # The scan does see the numpy-backed layers.
    assert {"symplectic", "states", "channels", "cooling", "thermo", "selftest"} <= backed


@pytest.mark.parametrize(
    "module, planted, caught",
    [
        ("scalar", "import numpy as np\n", {"scalar", "feasibility", "cli"}),
        ("feasibility", "from .states import nu_of\n", {"feasibility", "cli"}),
        ("cli", "if True:\n    from .cooling import run_protocol\n", {"cli"}),
        ("cli", "class Reader:\n    import numpy.linalg\n", {"cli"}),
        ("__init__", "from gtokit.symplectic import omega\n", {"__init__"}),
        ("__init__", "from . import channels\n", {"__init__"}),
    ],
)
def test_a_planted_numpy_import_is_caught(module, planted, caught):
    sources = package_sources()
    sources[module] += planted
    assert numpy_backed(sources) & NUMPY_FREE == caught


def test_an_import_inside_a_function_is_not_a_load_time_import():
    sources = package_sources()
    sources["scalar"] += "def later():\n    import numpy\n"
    assert "scalar" not in numpy_backed(sources)
