import io
import json
import sys

import pytest

from gtokit.cli import main


@pytest.fixture
def gtokit_run(monkeypatch, capsys):
    """``run(argv, payload)``: exit code and stdout of ``gtokit`` reading ``payload`` as JSON on stdin."""

    def run(argv, payload):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code = main(argv)
        return code, capsys.readouterr().out

    return run
