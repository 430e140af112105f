"""Golden corpus: the CLI's exact bytes and the forward half's exact bits.

``cli.txt`` holds stdout, stderr and the exit code of each argv in
``regen.cli_cases()``; ``digest.json`` holds, per block, the ``float.hex`` text
of a library quantity and its sha256. ``tests/test_golden.py`` compares both
with the current code; ``regen.py`` rewrites them. Usage and help text is
argparse's, wrapped at ``COLUMNS=80``; its wording is that of the CPython
the corpus was written with (3.11).
"""
