"""The README's examples run: the library quickstart prints what its
comments say, and every `cloneopt ...` line of the command-line section
exits 0 and prints what the comment under it shows."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cloneopt.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(section, language):
    """The first ```language block under the ## heading `section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def commands():
    """(argv, shown output or None) of each `cloneopt` line, with the line
    as its id; the output is the comment on the line below it, if any."""
    lines = code_block("Command line", "sh").splitlines()
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("cloneopt "):
            shown = after[2:] if after.startswith("# ") else None
            yield pytest.param(shlex.split(line)[1:], shown, id=line)


def test_library_quickstart_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("Library quickstart", "python"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "2/3"
    assert lines[-1] == "4/3 True"


@pytest.mark.parametrize("argv,shown", list(commands()))
def test_command_line_examples_run(argv, shown, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    if shown is not None:
        # the whole line, or each fragment around a "..."
        for fragment in shown.split("..."):
            assert fragment.strip() in out
