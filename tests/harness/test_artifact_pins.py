"""The report text of the two costliest paper artifacts and of the ones
that share their caches, pinned at full size.

T4 and F2 read the annealed cohort reconstruction; E4 and E5 read the
shared range-query profile.  Each digest covers the report text and its
sorted checks, so a faster search or profile that moved one byte of any
table, figure or verdict fails here.
"""

import hashlib

import pytest

from repro.harness import run_experiment

#: recorded with the per-move ``propose``/``commit`` annealer and the
#: per-query profile loops.
PINNED = {
    "T4": "01bb883de233f1b80ca3a2e9a1400c7bab1a12b7a505580b9cf994cb05c6ec4c",
    "F2": "b1e87e56c50ddee168c683ba54539f5ec4ee3dbf839e772f3879061840888211",
    "E4": "168a3b3c7364a2e9b6c8ee0c68eaa3a33dbffbaee550e6068d815a73b5987d73",
    "E5": "50b3002458726f13d1a894094050f54e2ba0f5f483d5e297e45e09bd756253a1",
}


def report_digest(report) -> str:
    h = hashlib.sha256(report.text.encode())
    for name, held in sorted(report.checks.items()):
        h.update(f"{name}={bool(held)};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("eid", sorted(PINNED))
def test_report_is_pinned(eid):
    report = run_experiment(eid)
    assert report.passed, report.summary_line()
    assert report_digest(report) == PINNED[eid]
