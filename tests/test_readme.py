"""The README's Python examples run, and print what their comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

#: per ```python block of the README, in order, the output line of each
#: print call whose comment states it exactly (None where the comment
#: describes the value instead)
STATED = [
    ["-1.0 1.0", "0.0", None],
    [None, "{'dim': 1, 'a_neg': -1.0, 'a_pos': 5.0}"],
    [None, "0.0"],
]


def test_readme_examples_print_what_they_state():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == len(STATED)
    for block, stated in zip(blocks, STATED):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        comments = [line.partition("#")[2].strip() for line in block.splitlines()
                    if line.startswith("print(")]
        lines = out.getvalue().splitlines()
        assert len(lines) == len(comments) == len(stated)
        for line, comment, want in zip(lines, comments, stated):
            if want is not None:
                assert comment.startswith(want)
                assert line == want
