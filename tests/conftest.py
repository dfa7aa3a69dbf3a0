"""Shared fixtures: the seeded verify reports, each run once per session."""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import pytest

from isotropykit.cli import main


def run_verify(suite, seed, *argv):
    """``isotropykit verify <suite> --seed <seed> [argv] --json``: the exit
    code, the report file's text and what the command printed."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(out):
            code = main(["verify", suite, "--seed", str(seed), *argv, "--json", str(path)])
        return code, path.read_text(), out.getvalue()


@pytest.fixture(scope="session")
def verify_report():
    """:func:`run_verify`, with each ``(suite, seed, *argv)`` run at most once."""
    return functools.cache(run_verify)
