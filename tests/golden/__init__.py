"""Golden corpus: the CLI's exact bytes and the forward half's exact bits.

``cli.txt`` holds stdout, stderr and the exit code of each argv in
``regen.cli_cases()``, a stream equal to an earlier record's as a reference to
it; ``digest.json`` holds, per block, the sha256 of a library quantity's
``float.hex`` text, and the text itself for the blocks in ``regen.HEX_KEPT``.
``tests/test_golden.py`` compares both with the current code; ``regen.py``
rewrites them. Usage and help text is argparse's, wrapped at the CLI's fixed
78 columns; its wording is that of the CPython the corpus was written with
(3.11).
"""
