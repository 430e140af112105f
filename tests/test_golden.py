"""The CLI's bytes and the forward half's bits against the golden corpus in
``tests/golden`` (rewritten on purpose only, by ``tests/golden/regen.py``)."""

import json

import pytest

from golden import regen

CLI = regen.load_cli(regen.CLI_PATH.read_text())
DIGEST = json.loads(regen.DIGEST_PATH.read_text())


def test_corpus_covers_every_case():
    assert sorted(CLI) == sorted(regen.cli_cases())


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
    return regen.digest_blocks()


def test_digest_covers_every_block(blocks):
    assert sorted(blocks) == sorted(DIGEST)


@pytest.mark.parametrize("name", sorted(DIGEST))
def test_digest(name, blocks):
    stored = DIGEST[name]
    assert regen.sha256(stored["hex"]) == stored["sha256"], "stored hex text edited by hand"
    lines = blocks[name]
    for i, (got, want) in enumerate(zip(lines, stored["hex"])):
        assert got == want, f"{name} line {i} changed"
    assert len(lines) == len(stored["hex"])
    assert regen.sha256(lines) == stored["sha256"]
