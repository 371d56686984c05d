"""Golden digests: the CLI's outputs, byte for byte, pinned by sha256.

A refactor that claims to leave behaviour unchanged must leave these digests
unchanged.  The training outputs pass through BLAS matrix products, so their
digests hold for the environment they were pinned in: numpy 2.4.6 with
OpenBLAS 0.3.31 on x86-64.  The contest and search reports use no BLAS.
"""

import hashlib

import pytest

from posecontest.cli import main as cli_main
from test_acceptance import SMALL_INI


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_small_training_outputs(tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    assert cli_main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "history.csv") == (
        "95e9b584afbedfc6e04c35fa3c86c2c6fde8a1d0a2e966f37efcea90a16a4fd8"
    )
    assert digest(tmp_path / "policy.bin") == (
        "0320fd022cf3d8bba80abb99d14ed444c16ed5dfb5e426338c77514fd4d7e560"
    )


def test_default_search_ledger(tmp_path):
    assert cli_main(["search", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "search.csv") == (
        "545a47ed443d282c8a2506de92125b583b265faf2a3102942d611ec86d7f0417"
    )


@pytest.mark.parametrize(
    "awards, expected",
    [
        (None, "bfa7e137acfc3e7675db0111054aa0421f3544fe1344fca99bbae119ff6d251c"),
        ("50,50,0,0", "fed2062f25d753d649e61910683db1b52bd8fb231eb9922d6040596e8a50445d"),
    ],
)
def test_contest_report(tmp_path, awards, expected):
    argv = ["contest", "--out", str(tmp_path)]
    if awards is not None:
        argv += ["--awards", awards]
    assert cli_main(argv) == 0
    assert digest(tmp_path / "contest.csv") == expected
