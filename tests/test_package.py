"""The package's public names: ``semikrylov.__all__`` is the list its imports make."""

import os
import subprocess
import sys
import types
from pathlib import Path

import semikrylov

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_is_sorted_unique_and_holds_no_module():
    """The 42 names of the API, none of them private or a submodule."""
    names = semikrylov.__all__
    assert names == sorted(set(names)) and len(names) == 42
    assert not [name for name in names if isinstance(getattr(semikrylov, name), types.ModuleType)]
    assert not [name for name in names if name.startswith("_")]


def test_all_does_not_change_when_the_cli_is_imported():
    """In a fresh interpreter, ``import semikrylov.cli`` binds ``cli`` on the package; the list stays as it was."""
    code = ("import semikrylov; before = list(semikrylov.__all__); import semikrylov.cli; "
            "print(hasattr(semikrylov, 'cli'), before == semikrylov.__all__)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.stdout.split() == ["True", "True"]


def test_a_star_import_binds_exactly_all():
    scope = {}
    exec("from semikrylov import *", scope)
    assert sorted(scope.keys() - {"__builtins__"}) == semikrylov.__all__
