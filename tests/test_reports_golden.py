"""The seeded verify reports reproduce their recorded bytes.

``tests/data/reports_sha256.json`` holds, for every suite at seeds 0 and 7,
the exit code and the sha256 of the ``--json`` report and of the printed
claim lines of ``isotropykit verify <suite> --seed <seed> --json``.  A change
that moves any reported value by one bit, or any claim id, status or line,
shows up here.  The reports come from the session fixture that
``test_claim_ids_match_manifest`` reads too, so each suite runs once.

Regenerate (only when a change of report bytes is intended and tabled) with
``PYTHONPATH=src python tests/test_reports_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import run_verify
from isotropykit.cli import SUITES

PATH = Path(__file__).parent / "data" / "reports_sha256.json"
SEEDS = (0, 7)


def _digests(code, report, stdout):
    return {"exit": code,
            "report": hashlib.sha256(report.encode()).hexdigest(),
            "stdout": hashlib.sha256(stdout.encode()).hexdigest()}


def record():
    return {f"{suite}/{seed}": _digests(*run_verify(suite, seed))
            for suite in SUITES for seed in SEEDS}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PATH.read_text())


def test_record_covers_every_suite_and_seed(recorded):
    assert sorted(recorded) == sorted(f"{suite}/{seed}" for suite in SUITES for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", SUITES)
def test_report_bytes_match_record(verify_report, recorded, suite, seed):
    assert _digests(*verify_report(suite, seed)) == recorded[f"{suite}/{seed}"]


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
