"""The README's code prints what its comments say it prints."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    """The bodies of the fenced ``python`` blocks of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_the_quick_start_prints_the_value_in_each_comment(capsys):
    # Each print line's trailing comment leads with the line it prints:
    # ``print(x)  # 2.0 seconds`` prints ``2.0``.
    (block,) = python_blocks(README.read_text())
    expected = [line.partition("#")[2].split()[0]
                for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected
