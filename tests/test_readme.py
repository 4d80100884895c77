"""The README's python examples run, and print what their comments say."""

import re
import sys
from pathlib import Path

import pytest

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# a print call whose line ends in the output it promises: print(...)  # out
PROMISE = re.compile(r"^\s*print\(.*\)\s*#\s*(.*?)\s*$")


def _normalized(text):
    return " ".join(text.split())


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"example{k}" for k in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block):
    promised = {line: _normalized(match[1])
                for line, text in enumerate(block.splitlines(), 1)
                if (match := PROMISE.match(text))}
    assert promised, "an example promises no printed value"
    printed = {}

    def record(*args):
        line = sys._getframe(1).f_lineno
        printed.setdefault(line, _normalized(" ".join(map(str, args))))

    exec(compile(block, "README.md", "exec"), {"print": record})
    assert {line: printed.get(line) for line in promised} == promised
