"""Every name ``gtokit/__init__.py`` exports has a caller and resolves.

A public name that nothing reads widens the API and is tested only for its
own sake.  The scan parses ``gtokit/__init__.py`` for the names it exports
(its ``_EXPORTS`` table, which the package resolves lazily, and any name it
imports) and fails unless each one is read (as a name or an attribute)
somewhere in the package's other modules, in ``perfbench/`` or in the
acceptance suite.  ``NO_CALLER_YET`` lists the names kept without a caller,
each with its reason; the scan also fails when one of them gains a caller,
so the list can only shrink.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gtokit

PACKAGE = Path(gtokit.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

NO_CALLER_YET = {
    "compose": "the Markovian-embedding route to every GTO will call it",
    "displaced_gto": "the only code for displaced-Hamiltonian GTOs; GTOSpec has no center yet",
    "triangularize_offdiagonal": "the paper's bath compression, still to be wired into the oracle",
}


def exported(init_tree) -> set:
    names = set()
    for node in ast.walk(init_tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            names |= {name for module_names in ast.literal_eval(node.value).values() for name in module_names}
    return names


def reader_trees() -> list:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def uncalled(init_tree, trees) -> set:
    """The exported names that no tree reads as a name or an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return exported(init_tree) - read


def test_every_export_has_a_caller():
    assert uncalled(ast.parse((PACKAGE / "__init__.py").read_text()), reader_trees()) == set(NO_CALLER_YET)


def test_a_planted_export_and_a_new_caller_are_caught():
    init = ast.parse((PACKAGE / "__init__.py").read_text() + "from .thermo import planted_helper\n")
    planted = ast.parse("from gtokit import compose\nimport gtokit\ncompose(a, b)\ngtokit.displaced_gto\n")
    assert uncalled(init, reader_trees() + [planted]) == {"planted_helper", "triangularize_offdiagonal"}


def test_a_name_planted_in_the_export_table_is_caught():
    source = (PACKAGE / "__init__.py").read_text()
    planted = source.replace('"thermo": (', '"thermo": (\n        "planted_helper",')
    assert planted != source
    assert uncalled(ast.parse(planted), reader_trees()) == {"planted_helper"} | set(NO_CALLER_YET)


EXPORTS = sorted(exported(ast.parse((PACKAGE / "__init__.py").read_text())))


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves_to_its_home(name):
    home = importlib.import_module(f"gtokit.{gtokit._HOME[name]}")
    assert getattr(gtokit, name) is getattr(home, name)


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(gtokit))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'planted_helper'"):
        gtokit.planted_helper
    assert not hasattr(gtokit, "_lab_frame")


def test_from_gtokit_import_a_submodule():
    from gtokit import selftest

    assert selftest is importlib.import_module("gtokit.selftest")


def test_a_star_import_yields_every_export_and_module():
    namespace = {}
    exec("from gtokit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(EXPORTS) | set(gtokit._EXPORTS)
    assert all(namespace[name] is getattr(gtokit, name) for name in namespace)
