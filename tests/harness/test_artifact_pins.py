"""The report text of every paper artifact, pinned at full size.

Each digest covers the report text and its sorted checks, so a change
that moved one byte of any table, figure or verdict, or flipped any
check, fails here.  Every artifact must be pinned: a new one cannot
land without a recorded digest.
"""

import hashlib

import pytest

from repro.harness import EXPERIMENTS, run_experiment

#: sha256 of ``report_digest`` for each artifact at full size.  Each
#: digest is the same whether the artifact runs alone in a fresh process
#: or after the others, so no pin depends on test order or caches.
PINNED = {
    "T1": "82d57d13297770b279f40da68237a7546e06d1bdf216798b39362e3c6eeecb39",
    "T2": "40f5cd316bbf248ce542e9d3914ba0ef844f692a2be6d92d684ca9c1a1dfb6e4",
    "T3": "ad0bf2a34ee23d73a00393c7a05cce16c239f9b3a4a1a9c4c1b3118ce14daf39",
    "T4": "01bb883de233f1b80ca3a2e9a1400c7bab1a12b7a505580b9cf994cb05c6ec4c",
    "F1": "2632cca506595b0479b3a77d85d9d8d3ce82f9fd1b28652966d90eb67c3115f9",
    "F2": "b1e87e56c50ddee168c683ba54539f5ec4ee3dbf839e772f3879061840888211",
    "E1": "d6c0199dcefe0eaa8e01d0d2a039d734060b6a290df194f885e8e155f591ad3c",
    "E2": "171a6bb7f69b0e62ed739cc27edfd85240e654d9d60f31e44bf2e2962055ddb9",
    "E3": "5ed73d157a245397d3c7d27da366d10c806d4ff347ff57360345dd32c4865271",
    "E4": "168a3b3c7364a2e9b6c8ee0c68eaa3a33dbffbaee550e6068d815a73b5987d73",
    "E5": "50b3002458726f13d1a894094050f54e2ba0f5f483d5e297e45e09bd756253a1",
    "E6": "1bf27fe7ea5c746eea6ddcf23c897cbfbacd8405631b46b86762b0a1bf998731",
    "E7": "322633603255cda5a5735522ce704509e05511f765cb3e6d15a9b0128895a679",
    "E8": "0be720a0c5ba1dd5fdd7ad61d2e1a3be870de86fe031c00776c6c6aaa18c7c93",
    "E9": "0c60b4eba970d77e184276b4583004ecad5b4d5ded14ee471db50e461b79d760",
    "E10": "b081196739cd01f114d84d15e813ebd942cdbbcc513a724a84ffd86b206f03eb",
    "A1": "52b16acad6026f77517854ad661a4f4741d78bab6cd85cc2f9365cd3c1227dac",
    "A2": "0a8776e36a915d2962258dd19aa3bdbbf766eee565c31534124cb0608fc9c37c",
    "A3": "48e08b152dfd97f4b6eb7e4a925c28711547de9d2f233c02a02efa79fde0fa77",
}


def report_digest(report) -> str:
    h = hashlib.sha256(report.text.encode())
    for name, held in sorted(report.checks.items()):
        h.update(f"{name}={bool(held)};".encode())
    return h.hexdigest()


def test_every_artifact_is_pinned():
    assert set(PINNED) == set(EXPERIMENTS)


@pytest.mark.parametrize("eid", sorted(PINNED))
def test_report_is_pinned(eid):
    report = run_experiment(eid)
    assert report.passed, report.summary_line()
    assert report_digest(report) == PINNED[eid]
