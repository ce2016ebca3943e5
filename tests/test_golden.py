"""Golden stdout: exact ``dwbc`` invocations print what they printed when
``golden_stdout.json`` was recorded.

Each record holds an argv, its exit code and its stdout, taken in
process through ``cli.main``.  Only exact invocations are recorded
(rational weights, exact identity suites), so no value depends on the
platform's libm; a change that turns an int into an equal Fraction, or
reorders a JSON field, shows here.  Regenerating the file is a change to
test data and is logged in CHANGES.md with its reason.
"""

import json
from pathlib import Path

import pytest

from dwbc.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_stdout.json"))
                    .read_text())


@pytest.mark.parametrize("record", GOLDEN,
                         ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_stdout_matches_the_recording(record, capsys):
    code = main(record["argv"])
    assert code == record["exit"]
    assert capsys.readouterr().out == record["stdout"]
