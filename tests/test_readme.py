"""README.md as tests: every `$ permarray ...` transcript gives the stdout it
shows, and the `>>>` examples run as doctests."""

import doctest
import re
import shlex
from pathlib import Path

from permarray.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_transcripts_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # in README order, in one directory: the verify transcript reads the
    # file the construct transcript writes
    monkeypatch.chdir(tmp_path)
    transcripts = [block for block in BLOCKS if block.startswith("$ permarray ")]
    assert len(transcripts) == 5
    for block in transcripts:
        command, shown = block.split("\n", 1)
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == shown, command


def test_doctest_examples():
    examples = [block for block in BLOCKS if block.startswith(">>> ")]
    assert len(examples) == 1
    test = doctest.DocTestParser().get_doctest(examples[0], {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == doctest.TestResults(0, 5)
