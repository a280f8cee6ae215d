"""Every paper claim in ``benchmarks/claims.py`` holds, one test per row.

Run with ``-s`` (``make claims``) to print each row's table.  The last
test keeps ARCHITECTURE's "Where the paper's claims live" table naming
exactly the ``CLAIMS`` rows, in order.
"""

import re
from pathlib import Path

import pytest

from benchmarks.claims import CLAIMS

ARCHITECTURE = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim):
    measured = claim.measure()
    assert set(measured) == set(claim.expect), "one expectation per quantity"
    print()
    print(claim.table(measured))
    missed = claim.misses(measured)
    assert not missed, f"{claim.id}: {missed} miss the paper"


def test_architecture_table_names_every_claim_row():
    table = ARCHITECTURE.read_text().split("| `CLAIMS` row |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"\| `([\w-]+)` \|$", table, flags=re.MULTILINE)
    assert rows == [claim.id for claim in CLAIMS]
