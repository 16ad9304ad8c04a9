"""Byte identity of the CLI's stdout on a frozen set of small invocations.

Each invocation's stdout is hashed with sha256 and compared with the digest
in golden_digests.json. The invocations run in one process in a fixed order,
so later ones meet the warm caches the earlier ones left; the digests must
match either way.

To record the digests again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from torsion_bounds.cli import main

DIGESTS_FILE = Path(__file__).with_name("golden_digests.json")

# the key of an invocation is its argv joined by spaces
INVOCATIONS = [
    ("lie-rank", "--degrees", "2:1,3:1", "--upto", "40"),
    ("lie-rank", "--degrees", "1:2,3:1", "--upto", "30", "--oracle-check", "--format", "json"),
    ("lie-rank", "--degrees", "1:1,2:1", "--upto", "200", "--oracle-check", "--format", "json"),
    ("roots", "--degrees", "2:1,3:1", "--format", "json"),
    ("roots", "--degrees", "2:1,4:1", "--format", "json"),
    ("roots", "--degrees", "2:1,3:1", "--precision-bits", "512"),
    ("roots", "--degrees", "1:1"),
    ("roots", "--degrees", "2:1", "--format", "json"),
    ("roots", "--degrees", "3:2,5:1", "--precision-bits", "200", "--format", "json"),
    ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "300"),
    ("bound", "--homology", "--q", "3", "--p", "5", "--from", "100", "--upto", "140", "--format", "json"),
    (
        "bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4",
        "--p", "3", "--from", "380", "--upto", "420", "--eps", "1/3",
    ),
    ("bezout", "--alpha", "3", "--beta", "4", "--a", "1/2", "--n", "1", "--cap", "120"),
    (
        "bezout", "--alpha", "4", "--beta", "6", "--a", "2/3", "--b", "1", "--n", "0",
        "--n", "2", "--cap", "300", "--witnesses", "--format", "json",
    ),
    ("dgl", "--q", "2", "--p", "3", "--upto", "9"),
    ("dgl", "--q", "1", "--p", "5", "--upto", "8", "--format", "json"),
    ("dgl", "--q", "1", "--p", "3", "--upto", "14"),
    ("dgl", "--q", "3", "--p", "3", "--upto", "16"),
    ("dgl", "--q", "2", "--p", "5", "--upto", "15", "--format", "json"),
    ("dgl", "--q", "1", "--p", "7", "--upto", "17"),
    ("dgl", "--q", "2", "--p", "3", "--upto", "20", "--format", "json"),
    ("dgl", "--q", "1", "--p", "3", "--upto", "20"),
    ("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--upto", "200"),
    ("report", "--space", "suspended-em", "--q", "3", "--p", "3", "--r", "2", "--upto", "120", "--format", "json"),
    ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "600"),
    ("report", "--space", "milnor-hypersurface", "--n", "2", "--l", "4", "--p", "3", "--from", "300", "--upto", "500", "--format", "json"),
    # rows at 4096 to 4352 bits
    ("report", "--space", "milnor-hypersurface", "--n", "3", "--l", "5", "--p", "3", "--from", "3900", "--upto", "4100"),
    ("report", "--space", "unitary", "--n", "3", "--p", "3", "--upto", "400"),
    ("report", "--space", "special-unitary", "--n", "4", "--p", "5", "--from", "1000", "--upto", "1100"),
    ("report", "--space", "grassmannian", "--n", "4", "--k", "2", "--p", "3", "--upto", "60"),
    ("verify", "--suite", "combinat"),
]


def _key(argv) -> str:
    return " ".join(argv)


def _digest(argv) -> str:
    result = CliRunner().invoke(main, list(argv), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return hashlib.sha256(result.stdout_bytes).hexdigest()


def _recorded() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


@pytest.mark.parametrize("argv", INVOCATIONS, ids=[_key(a) for a in INVOCATIONS])
def test_stdout_matches_golden_digest(argv):
    assert _digest(argv) == _recorded()[_key(argv)]


def test_every_invocation_has_a_digest():
    assert set(_recorded()) == {_key(argv) for argv in INVOCATIONS}


if __name__ == "__main__":
    digests = {_key(argv): _digest(argv) for argv in INVOCATIONS}
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_FILE.name}")
