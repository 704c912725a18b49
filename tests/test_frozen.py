"""Checked objects cannot change after their constructor returns.

Their constructors are the one home of each check: no field can be set, no
array field written, and a copy, pickle or ``dataclasses.replace`` goes back
through the constructor.  The scan at the end fails if a dataclass in
``src/gtokit`` with a ``__post_init__`` is not ``frozen=True``.
"""

import ast
import copy
import math
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import gtokit
from gtokit.channels import GaussianChannel, GTOSector, GTOSpec
from gtokit.cooling import ProtocolStep
from gtokit.states import FrequencySector, FrequencySpectrum, GaussianState, HamiltonianSpec, squeezer
from gtokit.symplectic import random_unitary

# Fresh constructor arguments of each checked class, holding writable arrays
# and lists that the caller may change after construction.
ARGUMENTS = {
    GaussianState: lambda: {"n_modes": 1, "first_moments": np.array([0.5, -0.5]), "cm": 2.0 * np.eye(2)},
    HamiltonianSpec: lambda: {"H": np.diag([1.0, 2.0]), "center": np.array([0.1, 0.2])},
    FrequencySector: lambda: {"omega": 1.0, "multiplicity": 2, "mode_indices": [0, 1]},
    FrequencySpectrum: lambda: {"S": squeezer(2.0), "sectors": [FrequencySector(1.0, 1, (0,))]},
    GaussianChannel: lambda: {"X": 0.5 * np.eye(2), "Y": np.eye(2), "d": np.array([0.1, 0.0])},
    GTOSector: lambda: {"Z": random_unitary(2, 1), "thetas": np.array([0.2, 0.4]), "W": random_unitary(2, 2)},
    GTOSpec: lambda: {
        "spectrum": FrequencySpectrum(np.eye(4), [FrequencySector(1.0, 2, [0, 1])]),
        "beta": 1.0,
        "sectors": [GTOSector(random_unitary(2, 3), [0.2, 0.4], random_unitary(2, 4))],
    },
    ProtocolStep: lambda: {"unitary": squeezer(2.0), "gto_p": 0.5, "gto_phi": 0.1},
}
CLASSES = pytest.mark.parametrize("cls", list(ARGUMENTS), ids=lambda cls: cls.__name__)


def arrays(obj) -> list:
    """Every array an object holds, through nested objects and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if is_dataclass(obj):
        return [a for f in fields(obj) for a in arrays(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [a for v in obj for a in arrays(v)]
    return []


def content(obj):
    """The values an object holds, as nested tuples: equal iff nothing changed."""
    if isinstance(obj, np.ndarray):
        return obj.shape, tuple(obj.ravel().tolist())
    if is_dataclass(obj):
        return type(obj).__name__, tuple(content(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, (tuple, list)):
        return type(obj).__name__, tuple(content(v) for v in obj)
    return obj


@CLASSES
def test_setting_a_field_raises(cls):
    obj = cls(**ARGUMENTS[cls]())
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


@CLASSES
def test_array_fields_are_read_only(cls):
    held = arrays(cls(**ARGUMENTS[cls]()))
    assert held or cls is FrequencySector
    for arr in held:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


@CLASSES
def test_changing_the_input_leaves_the_object_unchanged(cls):
    args = ARGUMENTS[cls]()
    obj = cls(**args)
    before = content(obj)
    for value in args.values():
        if isinstance(value, np.ndarray):
            value[...] = math.nan
        elif isinstance(value, list):
            value.clear()
    assert content(obj) == before


@CLASSES
def test_copies_and_pickles_stay_read_only_and_equal(cls):
    obj = cls(**ARGUMENTS[cls]())
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert content(twin) == content(obj)
        assert not any(arr.flags.writeable for arr in arrays(twin))


def test_replace_runs_the_checks_again():
    state = GaussianState.vacuum(1)
    with pytest.raises(ValueError, match="^cm must be finite"):
        replace(state, cm=math.nan * np.eye(2))
    assert np.array_equal(replace(state, cm=3.0 * np.eye(2)).cm, 3.0 * np.eye(2))


PACKAGE = Path(gtokit.__file__).parent


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def _is_frozen(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords
    )


def checked_dataclasses(sources: dict) -> dict:
    """``{class name: frozen}`` for each dataclass with a ``__post_init__``."""
    found = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d for d in node.decorator_list if _is_dataclass_decorator(d)]
            checks = any(isinstance(n, ast.FunctionDef) and n.name == "__post_init__" for n in node.body)
            if decorators and checks:
                found[node.name] = all(_is_frozen(d) for d in decorators)
    return found


def test_every_checked_dataclass_is_frozen():
    found = checked_dataclasses(package_sources())
    assert [name for name, frozen in found.items() if not frozen] == []
    # The scan does see the checked classes.
    assert {cls.__name__ for cls in ARGUMENTS} <= set(found)


@pytest.mark.parametrize(
    "planted",
    [
        "@dataclass\nclass Planted:\n    x: float\n\n    def __post_init__(self):\n        pass\n",
        "@dataclass(frozen=False)\nclass Planted:\n    def __post_init__(self):\n        pass\n",
        "@dataclasses.dataclass(eq=True)\nclass Planted:\n    def __post_init__(self):\n        pass\n",
        "def f():\n    @dataclass\n    class Planted:\n        def __post_init__(self):\n            pass\n",
    ],
)
def test_a_planted_mutable_checked_dataclass_is_caught(planted):
    sources = package_sources()
    sources["states"] += planted
    assert checked_dataclasses(sources)["Planted"] is False


def test_a_dataclass_without_checks_may_stay_mutable():
    sources = package_sources()
    sources["states"] += "@dataclass\nclass Plain:\n    x: float\n"
    assert "Plain" not in checked_dataclasses(sources)
