"""The CLI's bytes and the forward half's bits against the golden corpus in
``tests/golden`` (rewritten on purpose only, by ``tests/golden/regen.py``)."""

import json

import pytest

from golden import regen

CLI = regen.load_cli(regen.CLI_PATH.read_text())
DIGEST = json.loads(regen.DIGEST_PATH.read_text())


def test_corpus_covers_every_case():
    assert sorted(CLI) == sorted(regen.cli_cases())


def test_corpus_stays_under_500_kb():
    assert regen.CLI_PATH.stat().st_size + regen.DIGEST_PATH.stat().st_size < 500_000


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden"))
    regen.write_case_files(tmp)
    return tmp


@pytest.mark.parametrize("key", sorted(CLI))
def test_cli_bytes(key, case_dir):
    expected = CLI[key]
    assert regen.run_case(expected["argv"], case_dir) == expected


@pytest.fixture(scope="module")
def blocks():
    return {**regen.digest_blocks(), **regen.hashed_blocks()}


def test_digest_covers_every_block(blocks):
    assert sorted(blocks) == sorted(DIGEST)


@pytest.mark.parametrize("name", sorted(DIGEST))
def test_digest(name, blocks):
    stored = DIGEST[name]
    lines = blocks[name]
    if "hex" in stored:  # a hashed block keeps no text to compare line by line
        assert regen.sha256(stored["hex"]) == stored["sha256"], "stored hex text edited by hand"
        for i, (got, want) in enumerate(zip(lines, stored["hex"])):
            assert got == want, f"{name} line {i} changed"
        assert len(lines) == len(stored["hex"])
    assert regen.sha256(lines) == stored["sha256"]


def test_changed_keys_names_each_difference():
    old, new = {"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 4, "d": 5}
    assert regen.changed_keys(old, new) == ["changed b", "removed c", "added d"]
