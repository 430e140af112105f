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
    return regen.digest_blocks()


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


def test_changed_keys_sizes_each_moved_entry():
    one_ulp = (1.0).hex(), (1.0 + 2.0 ** -52).hex()
    old = {"a": f"x {one_ulp[0]} 0.1,-0.0", "b": "x 2", "c": "0.1"}
    new = {"a": f"x {one_ulp[1]} 0.10000000000000003,0.0", "b": "y 2", "c": "0.1"}
    assert regen.changed_keys(old, new, text=str) == [
        "changed a: 3 values, max 2 ulp", "changed b: text changed"]
    # a zero that changes sign moves by no ulp, but its text moved
    assert regen.moved("-0.0 inf nan", "0.0 inf nan") == "1 value, max 0 ulp"


def test_changed_keys_compares_blocks_by_hash():
    # a block that drops its hex text has not changed; one whose hash moved
    # while a side keeps no text is named without a size
    one, two = ["0x1.0000000000000p+0"], ["0x1.0000000000001p+0"]
    hexed = {"sha256": regen.sha256(one), "hex": one}
    old = {"same": hexed, "moved": hexed, "sized": hexed}
    new = {"same": {"sha256": hexed["sha256"]}, "moved": {"sha256": regen.sha256(two)},
           "sized": {"sha256": regen.sha256(two), "hex": two}}
    assert regen.changed_blocks(old, new) == ["changed moved", "changed sized: 1 value, max 1 ulp"]


def test_changed_keys_compares_cases_by_resolved_record():
    # a stream equal to an earlier record's is stored as a reference to it
    # and read back as its text
    record = {"argv": ["kernel"], "exit": 0, "stdout": "u,k\n0,1\n", "stderr": ""}
    results = {"first": record, "again": {**record, "argv": ["kernel", "--format", "table"]}}
    text = regen.dump_cli(results)
    assert text.count("stdout: = first") == 1 and text.count("u,k") == 1
    assert "stderr: = " not in text  # an empty stream stays a count
    assert regen.load_cli(text) == results
    assert regen.changed_cases(results, regen.load_cli(text)) == []
