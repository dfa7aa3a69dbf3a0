"""The names the benchmark traces exist in the package.

``perfbench/run.py`` reports per-layer metrics for a fixed list of function
names, and ``perfbench/tracer.py`` wraps the ``evaluate`` method of the
classical-basis classes by name; a renamed function or class would turn a
traced run into a ``KeyError``.  Both lists are read with ``ast`` rather than
imported, because importing ``run.py`` pins the BLAS thread variables.
The benchmark also gates every verify suite on the claim ids and skips listed
in ``perfbench/claims_manifest.json``, which is read here and never written.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
from pathlib import Path

import pytest

from isotropykit.cli import SUITES, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


PER_LAYER_FUNCTIONS = _literal(PERFBENCH / "run.py", "PER_LAYER_FUNCTIONS")
BASIS_CLASSES = _literal(PERFBENCH / "tracer.py", "BASIS_CLASSES")


def test_lists_are_not_empty():
    assert PER_LAYER_FUNCTIONS and BASIS_CLASSES


def test_per_layer_functions_are_traced_public_functions():
    for name in PER_LAYER_FUNCTIONS:
        layer, *rest = name.split(".")
        mod = importlib.import_module(f"isotropykit.{layer}")
        if rest[-1] == "evaluate" and len(rest) == 2:
            assert rest[0] in BASIS_CLASSES, name
            continue
        (func,) = rest
        obj = getattr(mod, func, None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name
        if layer == "cli":
            assert not func.startswith("_"), name
        else:
            assert func in mod.__all__, name


def test_basis_classes_exist():
    bases = importlib.import_module("isotropykit.classical_bases")
    for cls_name in BASIS_CLASSES.values():
        cls = getattr(bases, cls_name)
        assert inspect.isclass(cls) and callable(cls.evaluate), cls_name


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_claim_ids_match_manifest(tmp_path, suite, seed):
    # a rewrite of a suite must not move the ids the benchmark gates on
    manifest = json.loads((PERFBENCH / "claims_manifest.json").read_text())[suite]
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", suite, "--seed", str(seed), "--json", str(path)]) == 0
    claims = json.loads(path.read_text())["claims"]
    assert [c["id"] for c in claims] == manifest["ids"]
    assert [c["id"] for c in claims if c["status"] == "skip"] == manifest["skips"]
