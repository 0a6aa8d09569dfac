"""Setup shared by every test module."""

import os
from pathlib import Path

import ratdiff


def pytest_configure(config):
    # the CLI tests run `python -m ratdiff.cli` in a child process: give it
    # the ratdiff these tests import, also from a checkout that is not installed
    src = str(Path(ratdiff.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
