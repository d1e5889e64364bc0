"""Every `$ domcount ...` example in README.md, run through the CLI.

A command's output is the lines under it up to the next blank line or
command.  A complete output must equal stdout; one that elides lines with
`...` must match stdout's first line by prefix and its last line by suffix.
"""

import shlex
from pathlib import Path

import pytest

from domcount import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    examples, block, command = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            block, command = not block, None
        elif block and line.startswith("$ domcount "):
            command = line[len("$ domcount "):]
            examples.append((command, []))
        elif block and command is not None and line.strip():
            examples[-1][1].append(line)
        else:
            command = None
    return examples


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_example(command, expected, capsys):
    assert cli.main(shlex.split(command)) == 0
    out = capsys.readouterr().out.splitlines()
    if any(line.strip() == "..." for line in expected):
        assert out[0].startswith(expected[0])
        assert out[-1].endswith(expected[-1])
    else:
        assert out == expected
