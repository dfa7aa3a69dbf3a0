"""The seeded verify reports reproduce their recorded bytes.

``tests/data/reports_sha256.json`` holds, for every suite at seeds 0 and 7
and for the extra runs in ``EXTRA``, the exit code and the sha256 of the
``--json`` report and of the printed claim lines of
``isotropykit verify <suite> --seed <seed> [argv] --json``.  A change that
moves any reported value by one bit, or any claim id, status or line, shows
up here.  The reports come from the session fixture that
``test_claim_ids_match_manifest`` reads too, so each run happens once.

The extra runs widen the tripwire past the two seeds: the full rank sweep at
two more seeds, a longer gradients run, and single rank configurations that
reach the SVD list, skew tensors, unit vectors and general tensors.  The
``--p 3`` run exits 1, pinned as it stands (the vector-only defect, ROADMAP
item 9).  The ``--input`` runs read system files from ``tests/data``, named
in the record by file name only: one with a general non-symmetric tensor,
which no classical list covers, and one with a skew tensor, which the
classical lists cover.  The short isotropy, p-property and reconstruction
runs stack their trials at sizes the default runs do not (7, 5, 1 and 2),
since batched matmul may round differently by stack size.

Regenerate (only when a change of report bytes is intended and tabled) with
``PYTHONPATH=src python tests/test_reports_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import run_verify
from isotropykit.cli import SUITES

DATA = Path(__file__).parent / "data"
PATH = DATA / "reports_sha256.json"
SEEDS = (0, 7)
EXTRA = (
    ("rank", 3), ("rank", 11),
    ("gradients", 3, "--trials", "250"),
    ("rank", 3, "--n", "1", "--m", "1", "--p", "1", "--svd"),
    ("rank", 3, "--n", "2", "--m", "1", "--p", "1", "--skew"),
    ("rank", 3, "--n", "1", "--p", "2", "--unit-vectors"),
    ("rank", 3, "--m", "2", "--p", "1"),
    ("rank", 3, "--m", "2", "--p", "1", "--svd"),
    ("rank", 3, "--p", "3"),
    ("isotropy", 0, "--input", "input_general.json"),
    ("isotropy", 0, "--input", "input_skew.json"),
    ("rank", 0, "--input", "input_general.json"),
    ("rank", 0, "--input", "input_skew.json"),
    ("rank", 0, "--input", "input_general.json", "--svd"),
    ("isotropy", 3, "--trials", "7"),
    ("p-property", 3, "--trials", "5"),
    ("reconstruction", 3, "--trials", "1"),
    ("isotropy", 0, "--input", "input_general.json", "--trials", "2"),
)
RUNS = tuple((suite, seed) for suite in SUITES for seed in SEEDS) + EXTRA


def _key(suite, seed, *argv):
    return " ".join((f"{suite}/{seed}", *argv))


def _run(report, suite, seed, *argv):
    # ``report`` (``run_verify`` or its cached fixture) with each ``--input``
    # file name resolved in the data directory
    argv = [str(DATA / a) if prev == "--input" else a
            for prev, a in zip(("",) + argv, argv)]
    return report(suite, seed, *argv)


def _digests(code, report, stdout):
    return {"exit": code,
            "report": hashlib.sha256(report.encode()).hexdigest(),
            "stdout": hashlib.sha256(stdout.encode()).hexdigest()}


def record():
    return {_key(*run): _digests(*_run(run_verify, *run)) for run in RUNS}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PATH.read_text())


def test_record_covers_every_suite_and_seed(recorded):
    assert sorted(recorded) == sorted(_key(*run) for run in RUNS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", SUITES)
def test_report_bytes_match_record(verify_report, recorded, suite, seed):
    assert _digests(*verify_report(suite, seed)) == recorded[_key(suite, seed)]


@pytest.mark.parametrize("run", EXTRA,
                         ids=lambda run: "-".join(str(a).lstrip("-") for a in run))
def test_extra_run_bytes_match_record(verify_report, recorded, run):
    assert _digests(*_run(verify_report, *run)) == recorded[_key(*run)]


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
