"""End-to-end CLI behaviour: exit codes, determinism, file round trips."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from isotropykit import cli
from isotropykit.analysis import VerificationReport
from isotropykit.cli import SUITES, load_system_file, main
from isotropykit.spectral_frame import build_frame, extract_invariants


def write_system(path, sym=(), nonsym=(), vecs=()):
    doc = {
        "version": 1,
        "sym": [np.asarray(m).tolist() for m in sym],
        "nonsym": [{"matrix": np.asarray(m).tolist(), "skew": bool(s)}
                   for m, s in nonsym],
        "vecs": [{"v": np.asarray(v).tolist(), "unit": bool(u)} for v, u in vecs],
    }
    path.write_text(json.dumps(doc))
    return path


# each tuning flag of ``verify``: its arguments (``--input`` takes a system
# file), and the runner parameter it sets
TUNING_FLAGS = {"--input": ([], "system"), "--trials": (["5"], "trials"),
                "--tol": (["1e-30"], "tol"), "--n": (["1"], "n"), "--m": (["1"], "m"),
                "--p": (["1"], "p"), "--skew": ([], "skew"),
                "--unit-vectors": ([], "unit_vectors"), "--svd": ([], "svd")}
TAKES = {
    "isotropy": {"--input", "--trials", "--tol"},
    "reconstruction": {"--input", "--trials", "--tol"},
    "rank": {"--input", "--n", "--m", "--p", "--skew", "--unit-vectors", "--svd"},
    "gradients": {"--trials"},
    "p-property": {"--trials", "--tol"},
    "coalescence": {"--tol"},
    "hyperelastic": {"--trials", "--tol"},
}
PAIRS = [(suite, flag) for suite in SUITES for flag in TUNING_FLAGS]
NOT_TAKEN = [pair for pair in PAIRS if pair[1] not in TAKES[pair[0]]]
TAKEN = [pair for pair in PAIRS if pair[1] in TAKES[pair[0]]]


def flag_argv(tmp_path, flag):
    if flag == "--input":
        return [flag, str(write_system(tmp_path / "sys.json",
                                       sym=[np.diag([3.0, 2.0, 1.0])]))]
    return [flag, *TUNING_FLAGS[flag][0]]


def stub_runner(monkeypatch, suite, fn):
    # replaces the suite's runner by ``fn`` under the runner's own signature,
    # as the benchmark tracer rebinds it
    name = "run_" + suite.replace("-", "_")
    monkeypatch.setattr(cli, name, functools.wraps(getattr(cli, name))(fn))


class TestCounts:
    def test_quoted_counting_rows(self, capsys):
        assert main(["counts", "--n", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "spectral scalar invariants:    15" in out
        assert "37 scalar invariants and 36 generator tensors" in out
        assert main(["counts", "--n", "1", "--p", "1", "--unit-vectors"]) == 0
        assert "spectral scalar invariants:    5" in capsys.readouterr().out
        assert main(["counts", "--p", "1"]) == 0
        assert "spectral scalar invariants:    1" in capsys.readouterr().out

    def test_general_nonsym_has_no_classical_column(self, capsys):
        assert main(["counts", "--n", "1", "--m", "1"]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_empty_configuration_is_usage_error(self, capsys):
        assert main(["counts"]) == 2


class TestExitCodes:
    def test_pass_is_zero(self):
        assert main(["verify", "coalescence", "--seed", "7"]) == 0

    def test_numerical_failure_is_one(self, capsys):
        # an absurd tolerance forces honest claims to fail
        code = main(["verify", "isotropy", "--seed", "7", "--trials", "5",
                     "--tol", "1e-30"])
        assert code == 1
        assert "failing claims:" in capsys.readouterr().err

    def test_bad_input_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "isotropy", "--input", str(bad)]) == 2

    def test_asymmetric_sym_rejected(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "version": 1,
            "sym": [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
            "nonsym": [], "vecs": [],
        }))
        assert main(["verify", "reconstruction", "--input", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"version": 1, "vecs": [[1.0, 0.0, 0.0]]},
        {"version": 1, "nonsym": [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]},
        {"version": 1, "vecs": [{"unit": True}]},
        {"version": 1, "nonsym": {"matrix": [[1.0, 0.0, 0.0]] * 3}},
    ], ids=["bare-vector", "bare-matrix", "vector-without-v", "nonsym-not-a-list"])
    def test_malformed_entries_rejected(self, tmp_path, capsys, doc):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "isotropy", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["frame"], ["verify", "isotropy"]],
                             ids=["frame", "verify"])
    @pytest.mark.parametrize("doc", [
        {"version": 1, "nonsym": [{"matrix": {"a": 1}}]},
        {"version": 1, "sym": [{"a": 1}]},
        {"version": 1, "sym": [np.eye(3).tolist()],
         "vecs": [{"v": [1.0, 0.0, 0.0], "unit": "false"}]},
        {"version": 1, "nonsym": [{"matrix": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0]], "skew": 1}]},
    ], ids=["object-matrix", "object-sym", "string-unit-flag", "number-skew-flag"])
    def test_malformed_values_rejected(self, tmp_path, capsys, doc, command):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        assert main(command + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"version": 2, "sym": []}))
        assert main(["verify", "isotropy", "--input", str(path)]) == 2

    def test_unknown_suite_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite,flag", NOT_TAKEN,
                             ids=[f"{s}{f}" for s, f in NOT_TAKEN])
    def test_flag_not_taken_is_two(self, tmp_path, monkeypatch, capsys, suite, flag):
        # unchecked, each of these flags was accepted and changed nothing
        # (``verify gradients --tol 1e-30`` passed every claim)
        def never(*args, **kwargs):
            raise AssertionError("suite work started")

        stub_runner(monkeypatch, suite, never)
        assert main(["verify", suite, *flag_argv(tmp_path, flag)]) == 2
        assert capsys.readouterr().err == f"error: suite {suite!r} does not take {flag}\n"

    @pytest.mark.parametrize("suite,flag", TAKEN, ids=[f"{s}{f}" for s, f in TAKEN])
    def test_flag_taken_reaches_runner(self, tmp_path, monkeypatch, suite, flag):
        seen = {}

        def record(seed, **kwargs):
            seen.update(kwargs)
            return VerificationReport(suite, seed, 100)

        stub_runner(monkeypatch, suite, record)
        assert main(["verify", suite, *flag_argv(tmp_path, flag)]) == 0
        assert list(seen) == [TUNING_FLAGS[flag][1]]

    @pytest.mark.parametrize("extra", [["--n", "1"], ["--m", "2"], ["--p", "1"],
                                       ["--skew"], ["--unit-vectors"]],
                             ids=["n", "m", "p", "skew", "unit-vectors"])
    def test_rank_input_with_configuration_is_two(self, tmp_path, capsys, extra):
        # unchecked, the file ran and the configuration was silently dropped
        argv = ["verify", "rank", *flag_argv(tmp_path, "--input"), *extra]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input") and err.count("\n") == 1

    def test_input_rejected_for_suites_without_one(self, tmp_path):
        path = write_system(tmp_path / "sys.json", sym=[np.diag([3.0, 2.0, 1.0])])
        assert main(["verify", "gradients", "--input", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["isotropy", "--trials", "0"],
        ["reconstruction", "--trials", "0"],
        ["p-property", "--trials", "-3"],
        ["isotropy", "--tol", "nan"],
        ["isotropy", "--tol", "-1"],
        ["reconstruction", "--tol", "inf"],
        ["coalescence", "--tol", "0"],
    ], ids=["isotropy-zero-trials", "reconstruction-zero-trials",
            "p-property-negative-trials", "nan-tol", "negative-tol", "inf-tol", "zero-tol"])
    def test_bad_trials_or_tol_is_two(self, capsys, argv):
        # unchecked, zero trials crash isotropy or pass reconstruction with no
        # trial run, and a NaN or negative tolerance fails honest claims (exit 1)
        assert main(["verify", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1


class TestDeterminism:
    def test_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "p-property", "--seed", "11", "--trials", "20"]
        assert main(args + ["--json", str(out1)]) == 0
        assert main(args + ["--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["version"] == 1
        assert doc["seed"] == 11
        assert all("runtime" not in claim for claim in doc["claims"])
        ids = [c["id"] for c in doc["claims"]]
        assert ids == sorted(ids)

    def test_seed_changes_report(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "reconstruction", "--seed", "1", "--trials", "10",
                     "--json", str(out1)]) == 0
        assert main(["verify", "reconstruction", "--seed", "2", "--trials", "10",
                     "--json", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_env_seed_and_flag_priority(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ISOTROPYKIT_SEED", "42")
        assert main(["verify", "coalescence"]) == 0
        assert "(seed 42)" in capsys.readouterr().out
        assert main(["verify", "coalescence", "--seed", "3"]) == 0
        assert "(seed 3)" in capsys.readouterr().out
        monkeypatch.setenv("ISOTROPYKIT_SEED", "not-a-number")
        assert main(["verify", "coalescence"]) == 2


class TestFrame:
    def test_prints_frame_and_invariants(self, tmp_path, capsys):
        path = write_system(tmp_path / "sys.json", sym=[np.diag([3.0, 2.0, 1.0])])
        assert main(["frame", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eigenvalues: 3.0  2.0  1.0" in out
        assert "degeneracy partition: {1} {2} {3}" in out

    def test_degenerate_warning(self, tmp_path, capsys):
        path = write_system(tmp_path / "sys.json", sym=[np.eye(3)])
        assert main(["frame", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "degeneracy partition: {1,2,3}" in out
        assert "warning" in out

    def test_zero_frame_vector_exits_two(self, tmp_path, capsys):
        path = write_system(tmp_path / "sys.json", vecs=[([0.0, 0.0, 0.0], False)])
        assert main(["frame", "--input", str(path)]) == 2
        assert main(["verify", "reconstruction", "--input", str(path)]) == 2
        assert capsys.readouterr().err.count("error: frame vector is zero") == 2

    def test_output_matches_library_byte_for_byte(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        m = rng.standard_normal((3, 3))
        a = rng.standard_normal(3)
        path = write_system(tmp_path / "sys.json", sym=[0.5 * (m + m.T)],
                            vecs=[(a, False)])
        assert main(["frame", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        printed = {}
        for line in out.splitlines():
            if line.startswith("  ") and " = " in line:
                label, value = line.strip().split(" = ")
                printed[label] = value
        system = load_system_file(str(path))
        inv = extract_invariants(system, build_frame(system))
        assert printed == {label: repr(value) for label, value in inv.entries}

    def test_svd_frame(self, tmp_path, capsys):
        path = write_system(tmp_path / "sys.json",
                            nonsym=[(np.diag([2.0, 1.0, 0.5]), False)])
        assert main(["frame", "--input", str(path), "--svd"]) == 0
        out = capsys.readouterr().out
        assert "singular values: 2.0  1.0  0.5" in out
        assert "u1:" in out


class TestSystemFile:
    def test_unit_vector_renormalized(self, tmp_path):
        path = write_system(tmp_path / "sys.json",
                            vecs=[([1.0 + 5e-10, 0.0, 0.0], True)])
        system = load_system_file(str(path))
        assert np.linalg.norm(system.vecs[0]) == 1.0

    def test_skew_flag_enforced(self, tmp_path):
        path = write_system(tmp_path / "sys.json", nonsym=[(np.eye(3), True)])
        with pytest.raises(ValueError):
            load_system_file(str(path))


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isotropykit.cli", "counts", "--n", "1",
             "--p", "1", "--unit-vectors"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "5" in proc.stdout
