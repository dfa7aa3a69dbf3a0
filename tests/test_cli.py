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
from isotropykit.lin3 import haar_rotation
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

    @pytest.mark.parametrize("argv", [["--n", "1", "--m", "1"], ["--m", "1"]])
    def test_skew_svd_is_usage_error(self, capsys, argv):
        # the SVD count would be 12 for N1M1 skew (9 coordinates) and 6 for
        # a lone skew tensor (3 coordinates)
        assert main(["counts", *argv, "--skew", "--svd"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --svd needs general tensors, not --skew: a skew tensor's singular "
            "values (s, s, 0) never give a generic SVD frame\n")

    @pytest.mark.parametrize("command", [["counts"], ["verify", "rank"]])
    @pytest.mark.parametrize("flag", ["--svd", "--skew"])
    def test_count_errors_name_the_flag(self, capsys, command, flag):
        # the library's keywords (svd_variant, skew_nonsym) are not CLI flags
        assert main([*command, "--n", "1", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} needs --m >= 1\n"


class TestExitCodes:
    def test_pass_is_zero(self):
        assert main(["verify", "coalescence", "--seed", "7"]) == 0

    def test_numerical_failure_is_one(self, capsys):
        # an absurd tolerance forces honest claims to fail
        code = main(["verify", "isotropy", "--seed", "7", "--trials", "5",
                     "--tol", "1e-30"])
        assert code == 1
        assert "failing claims:" in capsys.readouterr().err

    def test_gradient_sweep_at_a_non_default_count(self, tmp_path, capsys):
        # 250 trials run 25 FD cases per argument class (10 by default)
        path = tmp_path / "report.json"
        assert main(["verify", "gradients", "--seed", "3", "--trials", "250",
                     "--json", str(path)]) == 0
        ids = [c["id"] for c in json.loads(path.read_text())["claims"]]
        assert len(ids) == 81
        for name in ("vector", "sym", "nonsym"):
            assert [i for i in ids if i.startswith(f"gradients/{name}/case")] == \
                [f"gradients/{name}/case{k:02d}" for k in range(25)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_unit_vector_rank_is_zero(self, tmp_path, seed):
        # |a|^2 = 1 is the only invariant of one unit vector; the round-off of
        # its FD column once counted as rank 1 at most seeds (exit 1)
        path = tmp_path / "rank.json"
        argv = ["verify", "rank", "--p", "1", "--unit-vectors", "--seed", str(seed),
                "--json", str(path)]
        assert main(argv) == 0
        claims = json.loads(path.read_text())["claims"]
        assert {c["id"]: c["value"] for c in claims} == {"rank/classical": 0.0,
                                                          "rank/spectral": 0.0}

    @pytest.mark.parametrize("scale", [1e-30, 3e7, 1e200])
    def test_input_rank_does_not_depend_on_size(self, tmp_path, scale):
        # 3e7 is a stress in Pa; a fixed FD step and a floor that grew with
        # max|f| once dropped all three eigenvalue rows (rank 0, exit 1)
        path = tmp_path / "rank.json"
        system = write_system(tmp_path / "sys.json", sym=[scale * np.diag([3.0, 2.0, 1.0])])
        assert main(["verify", "rank", "--input", str(system), "--json", str(path)]) == 0
        claims = json.loads(path.read_text())["claims"]
        assert {c["id"]: c["value"] for c in claims} == {"rank/classical": 3.0,
                                                          "rank/spectral": 3.0}

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

    @pytest.mark.parametrize("command", [["frame"], ["verify", "rank"]],
                             ids=["frame", "rank"])
    @pytest.mark.parametrize("doc,message", [
        ({"vec": [{"v": [1, 2, 3]}]}, 'unknown key "vec" in system file'),
        ({"sym": [np.diag([3.0, 2.0, 1.0]).tolist()],
          "vecs": [{"v": [0.6, 0.8, 0], "units": True}]},
         'unknown key "units" in "vecs" entries'),
        ({"nonsym": [{"matrix": np.eye(3).tolist(), "skw": True}]},
         'unknown key "skw" in "nonsym" entries'),
    ], ids=["top-level", "vector-entry", "matrix-entry"])
    def test_unknown_keys_rejected(self, tmp_path, capsys, command, doc, message):
        # a misspelled key would drop its vector or flag without a word
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"version": 1, **doc}))
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag", ["--skew", "--unit-vectors"])
    def test_rank_flag_without_configuration_is_two(self, capsys, flag):
        # unchecked, the full sweep ran without the flag and exited 0
        assert main(["verify", "rank", flag]) == 2
        assert capsys.readouterr().err == \
            f"error: {flag} needs an explicit --n/--m/--p configuration\n"

    def test_skew_svd_source_is_two(self, capsys):
        # a skew tensor's singular values are (s, s, 0), so it never carries a
        # generic SVD frame; judging the symmetric tensor instead, the check
        # passed and the rank suite failed with an arbitrary rank (exit 1).
        # The count is refused before any rank is taken
        argv = ["verify", "rank", "--n", "1", "--m", "1", "--skew", "--seed", "0", "--svd"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --svd needs general tensors, not --skew: a skew tensor's singular "
            "values (s, s, 0) never give a generic SVD frame\n")

    def test_coalescent_input_rank_is_two(self, tmp_path, capsys):
        # eigenvalues (3, 1 + 1e-7, 1): the rank check names the pair and the gap
        q = haar_rotation(np.random.default_rng(61))
        path = write_system(tmp_path / "sys.json",
                            sym=[q @ np.diag([3.0, 1.0 + 1e-7, 1.0]) @ q.T],
                            vecs=[([0.3, -1.2, 0.8], False)])
        assert main(["verify", "rank", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: the sym_tensor frame's source values 2 and 3 "
                              "coalesce (gap ")

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

    @pytest.mark.parametrize("command", [
        ["frame"], ["verify", "isotropy"], ["verify", "reconstruction"], ["verify", "rank"],
    ], ids=["frame", "isotropy", "reconstruction", "rank"])
    @pytest.mark.parametrize("doc,key", [
        ({"sym": [[[3, 0, 0], [0, True, 0], [0, 0, 1]]]}, "sym"),
        ({"nonsym": [{"matrix": [[3, 0, 0], [0, "1", 0], [0, 0, 1]]}]}, "matrix"),
        ({"vecs": [{"v": [1, 2, None]}]}, "v"),
        ({"sym": [np.diag([3.0, 2.0, 1.0]).tolist()], "vecs": [{"v": [1, False, 2]}]}, "v"),
        ({"vecs": [{"v": [1, [2], 3]}, {"v": [1, 2, {"x": 1}]}]}, "v"),
    ], ids=["true-in-sym", "string-in-matrix", "null-in-v", "false-in-v", "object-in-v"])
    def test_only_json_numbers_are_entries(self, tmp_path, capsys, command, doc, key):
        # json reads true as a bool and "1" as a str, which numpy would take
        # for 1.0: each is an input error, exit 2 with one error line
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"version": 1, **doc}))
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f'error: "{key}" entries must be JSON numbers\n'
        assert captured.out == ""

    def test_integer_beyond_the_double_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text('{"version": 1, "vecs": [{"v": [1, 2, 1%s]}]}' % ("0" * 400))
        assert main(["frame", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: vector has non-finite entries\n"

    @pytest.mark.parametrize("command", [["frame"], ["verify", "rank"]],
                             ids=["frame", "rank"])
    def test_deep_nesting_is_an_input_error(self, tmp_path, capsys, command):
        # json recurses once per level: a file nested past the recursion
        # limit is one error line and exit 2, not a RecursionError traceback
        path = tmp_path / "sys.json"
        depth = 100_000
        path.write_text('{"version": 1, "sym": ' + "[" * depth + "]" * depth + "}")
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: system file is nested too deeply to parse\n"
        assert captured.out == ""


    @pytest.mark.parametrize("command", [
        ["frame"], ["verify", "rank"], ["verify", "reconstruction"],
    ], ids=["frame", "rank", "reconstruction"])
    def test_overflowing_frame_vector_is_an_input_error(self, tmp_path, capsys, command):
        # finite entries whose squared norm overflows: one error line and
        # exit 2, not a NaN component or a warning
        path = tmp_path / "sys.json"
        path.write_text('{"version": 1, "vecs": [{"v": [1e308, 1e308, 0]}, {"v": [1, 2, 3]}]}')
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: frame vector's squared norm overflows\n"
        assert captured.out == ""

    def test_overflowing_gram_source_is_an_input_error(self, tmp_path, capsys):
        # finite entries whose H H^T overflows: one error line and exit 2
        path = write_system(tmp_path / "sys.json", nonsym=[
            (1e300 * np.random.default_rng(0).standard_normal((3, 3)), False)])
        assert main(["frame", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tensor has non-finite entries\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["frame"], ["verify", "isotropy"]],
                             ids=["frame", "isotropy"])
    def test_boolean_version_rejected(self, tmp_path, capsys, command):
        # json reads true as a bool, which equals 1
        path = tmp_path / "sys.json"
        path.write_text('{"version": true, "sym": [[[3, 0, 0], [0, 2, 0], [0, 0, 1]]]}')
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unsupported system file version True\n"
        assert captured.out == ""


@pytest.mark.parametrize("argv,text,message", [
    (["frame", "--input"], "[1, 2]", "system file must be a JSON object"),
    (["frame", "--input"], '{"version": 1, "sym": 3}', '"sym" must be a list of matrices'),
    (["verify", "rank", "--svd"], None,
     "the SVD rank variant needs --input or an explicit --n/--m/--p configuration"),
], ids=["frame-not-an-object", "frame-sym-number", "rank-svd-no-configuration"])
def test_public_errors(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "sys.json"
        path.write_text(text)
        argv = [*argv, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reuse_keeps_defaults(self):
        # a parse does not leak into the next one through the shared parser
        first = cli.build_parser().parse_args(["verify", "rank", "--n", "2", "--seed", "3"])
        second = cli.build_parser().parse_args(["verify", "rank"])
        assert (first.n, first.seed) == (2, 3)
        assert (second.n, second.seed, second.system) == (None, None, None)


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isotropykit.cli", "counts", "--n", "1",
             "--p", "1", "--unit-vectors"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "5" in proc.stdout
