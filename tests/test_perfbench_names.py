"""The names the benchmark traces exist in the package.

``perfbench/run.py`` reports per-layer metrics for a fixed list of function
names, and ``perfbench/tracer.py`` wraps the ``evaluate`` method of the
classical-basis classes by name; a renamed function or class would turn a
traced run into a ``KeyError``.  Both lists are read with ``ast`` rather than
imported, because importing ``run.py`` pins the BLAS thread variables.
The benchmark also gates every verify suite on the claim ids and skips listed
in ``perfbench/claims_manifest.json``, which is read here and never written;
the reports come from the session fixture ``verify_report`` of ``conftest.py``.
The tracer counts the chart evaluations of ``analysis.jacobian_rank`` through
``analysis.ambient_chart``, which no longer exists, so it reads none; it counts
the eigendecompositions of a frame at the public ``lin3.eig_sym`` that
``spectral_frame`` imports, and looks up every name in a traced module's
``__all__``.  It also replaces ``cli.json`` by a namespace of a few names,
read here from ``tracer.py``, which must hold every ``json.<name>`` of ``cli``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import isotropykit
from isotropykit import analysis, classical_bases, lin3, potentials, spectral_frame
from isotropykit.classical_bases import boehler_scalars
from isotropykit.cli import SUITES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


PER_LAYER_FUNCTIONS = _literal(PERFBENCH / "run.py", "PER_LAYER_FUNCTIONS")
BASIS_CLASSES = _literal(PERFBENCH / "tracer.py", "BASIS_CLASSES")


def _json_namespace(path):
    # the keywords of the ``types.SimpleNamespace(...)`` assigned to ``cli.json``
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "json"
                and isinstance(t.value, ast.Name) and t.value.id == "cli"
                for t in node.targets):
            call = node.value
            assert isinstance(call, ast.Call) and ast.unparse(call.func) == \
                "types.SimpleNamespace", ast.unparse(call)
            return {kw.arg for kw in call.keywords}
    raise AssertionError(f"no cli.json namespace in {path}")


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


def test_cli_json_names_are_in_the_traced_namespace():
    # a traced run swaps ``cli.json`` for a namespace of the names below, so
    # any other ``json.<name>`` in ``cli`` would crash every traced run
    cli_path = Path(isotropykit.__file__).parent / "cli.py"
    used = {node.attr for node in ast.walk(ast.parse(cli_path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "json"}
    assert used and used <= _json_namespace(PERFBENCH / "tracer.py"), used


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(isotropykit.__path__)))
def test_all_names_are_defined_in_their_module(module):
    # ``tracer.py`` calls ``getattr`` on every ``__all__`` name of a traced
    # layer, so a stale entry would crash every traced run
    mod = importlib.import_module(f"isotropykit.{module}")
    for name in getattr(mod, "__all__", ()):
        assert getattr(getattr(mod, name, None), "__module__", None) == mod.__name__, name


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_claim_ids_match_manifest(verify_report, suite, seed):
    # a rewrite of a suite must not move the ids the benchmark gates on
    manifest = json.loads((PERFBENCH / "claims_manifest.json").read_text())[suite]
    code, report, _ = verify_report(suite, seed)
    assert code == 0
    claims = json.loads(report)["claims"]
    assert [c["id"] for c in claims] == manifest["ids"]
    assert [c["id"] for c in claims if c["status"] == "skip"] == manifest["skips"]



def test_no_rank_check_builds_a_chart_point(monkeypatch):
    # ``tracer.py`` counts chart points through ``analysis.ambient_chart``,
    # which is gone: both routes of a rank are exact, so no check evaluates
    # a list at a moved system.  The classical list runs its program once,
    # on one jet; a spectral list builds no system at all
    built, runs = [], []
    system, run = analysis._system, classical_bases._Basis._run
    monkeypatch.setattr(analysis, "_system", lambda *a: built.append(system(*a)) or built[-1])
    monkeypatch.setattr(classical_bases._Basis, "_run",
                        lambda self, stack, jet=False: runs.append(jet) or run(self, stack, jet))
    for shape, skew, dim in (((2, 0, 1), False, 15), ((1, 1, 1), True, 12)):
        sys0 = analysis.seeded_system(*shape, skew=skew, seed=0)
        built.clear()
        analysis.jacobian_rank(boehler_scalars(*shape), sys0)
        scaled, jet = built  # the scaled base and the jet, and nothing else
        assert scaled.sym[0].shape == (3, 3) and jet.sym[0].shape == (1 + dim, 3, 3)
    assert runs == [True] * 2
    systems = [analysis.seeded_system(0, 0, 2), analysis.seeded_system(1, 1, 1, seed=0)]
    built.clear()
    analysis.jacobian_rank(spectral_frame.build_frame, systems[0])
    analysis.jacobian_rank(spectral_frame.build_svd_frame, systems[1])
    assert len(built) == 2 and runs == [True] * 2  # the two scaled bases


def test_frames_decompose_through_the_public_eig_sym(monkeypatch):
    # ``lin3.eig_sym.calls`` and ``lin3.eig_sym_per_point`` count the frames
    # built: one call per frame memo miss, none per hit, and so exactly one
    # for a material point's invariants and stress
    assert spectral_frame.eig_sym is lin3.eig_sym
    calls = []
    monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
    monkeypatch.setattr(spectral_frame, "eig_sym",
                        lambda a: calls.append(a) or lin3.eig_sym(a))
    c_mat, a = np.diag([1.3, 1.1, 0.9]), np.array([0.6, 0.0, 0.8])
    c_mat[0, 2] = c_mat[2, 0] = 0.1
    system = lin3.tensor_system(sym=[c_mat], vecs=[a], unit=[True])
    frame = spectral_frame.build_frame(system)
    assert len(calls) == 1
    assert spectral_frame.build_frame(system) is frame and len(calls) == 1
    spectral_frame.extract_invariants(system, frame)
    potentials.hyperelastic_stress(potentials.polynomial_ti_model([1.0] * 8), c_mat, a)
    assert len(calls) == 1
    spectral_frame.build_frame(lin3.tensor_system(sym=[2.0 * c_mat]))
    assert len(calls) == 2


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_rank_pass_counts(tmp_path, monkeypatch):
    # the per-pass counts the benchmark's traced verify-rank run reports: one
    # frame per check (102 spectral, one for the classical list), no chart
    # point (every column is exact), one draw per checked point (none for
    # the 27 skips) and no re-validation of a drawn system; each spectral
    # check moves its frame in one _tangent call
    tangents = []
    original = analysis._tangent
    monkeypatch.setattr(analysis, "_tangent",
                        lambda *args: tangents.append(args) or original(*args))
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = isotropykit.cli.main(["verify", "rank", "--seed", "0", "--json",
                                     str(tmp_path / "rank.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: n for name, (n, _, _) in tracer.summarize(0, len(tracer.start)).items()}
    assert calls["spectral_frame.build_frame"] == 103
    assert tracer.counters.get(tracer_module.CHART_EVALS, 0) == 0
    assert calls["analysis.seeded_system"] == 103
    assert calls.get("lin3.tensor_system", 0) == 0
    assert len(tangents) == 102
