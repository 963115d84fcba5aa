"""Every certificates-only decision equals the committed ledger's.

``tests/data/decisions.json`` is written by ``tests/decision_ledger.py``;
a change to the chain that moves an entry regenerates it and says why.
"""

import json

from ctensor.psd import check_psd
from ctensor.verdict import NOT_PSD, not_psd_verdict

from decision_ledger import LEDGER, corpus, record

ENTRIES = json.loads(LEDGER.read_text())


def test_ledger_covers_every_route():
    tags = {e["certificate"] for e in ENTRIES.values()}
    assert tags == {None, "diag_dominance", "b0", "b", "diag_root", "doubly_circulant_reduction"}
    assert {e["decision"] for e in ENTRIES.values()} == {"psd", "psd_strict", "not_psd",
                                                         "inconclusive"}


def test_certificates_only_decisions_match_the_ledger():
    cases = corpus()
    assert sorted(name for name, _ in cases) == sorted(ENTRIES)
    moved = []
    for name, a in cases:
        v = check_psd(a, mode="certificates_only")
        if record(v) != ENTRIES[name]:
            moved.append(name)
        elif v.decision == NOT_PSD and ENTRIES[name]["witness"] is None:
            # an unpinned witness (the doubly circulant route's) must verify
            assert not_psd_verdict(a, v.witness, None, {}) is not None, name
    assert not moved, f"{len(moved)} of {len(cases)} entries moved, first {moved[:5]}"
