"""The JSON payload format lives in ``gtokit.cli`` alone.

The library takes and returns numpy arrays and its own types; only the CLI
reads and writes JSON.  The scan parses ``src/gtokit/*.py`` and fails when
any other module imports ``json`` or defines a ``to_dict`` / ``from_dict``
method, so the format cannot drift back into the library.
"""

import ast
from pathlib import Path

import gtokit

PACKAGE = Path(gtokit.__file__).parent


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def json_outside_cli(sources: dict) -> list:
    """``"module: what"`` for each module other than ``cli`` that knows the JSON format."""
    found = []
    for module, source in sources.items():
        if module == "cli":
            continue
        for node in ast.walk(ast.parse(source, module)):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
                found.append(f"{module}: import json")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append(f"{module}: from json import")
            elif isinstance(node, ast.FunctionDef) and node.name in ("to_dict", "from_dict"):
                found.append(f"{module}: def {node.name}")
    return found


def test_only_the_cli_knows_the_json_format():
    assert json_outside_cli(package_sources()) == []


def test_planted_json_handling_is_caught():
    planted = {
        "states": "import json\nclass GaussianState:\n    def to_dict(self):\n        pass\n",
        "channels": "from json import dumps\nclass GTOSpec:\n    def from_dict(cls, d):\n        pass\n",
        "cli": "import json\ndef from_dict(data):\n    pass\n",
    }
    assert json_outside_cli(package_sources() | planted) == [
        "channels: from json import",
        "channels: def from_dict",
        "states: import json",
        "states: def to_dict",
    ]
