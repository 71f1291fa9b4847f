"""The python examples of README.md run and print what they say."""

import ast
import contextlib
import io
import pathlib
import re
import tokenize

import orbihom

README = pathlib.Path(orbihom.__file__).parent.parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _comments(source: str) -> dict[int, str]:
    """Text of the comment on each line of source that has one."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokens if tok.type == tokenize.COMMENT}


def test_readme_python_blocks_print_what_their_comments_say():
    """Each python block of README.md runs statement by statement in
    one namespace; a statement whose last line ends in a comment prints
    exactly that comment's text."""
    blocks = BLOCK.findall(README.read_text())
    checked = 0
    for block in blocks:
        comments, namespace = _comments(block), {}
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
            if stmt.end_lineno in comments:
                assert out.getvalue().strip() == comments[stmt.end_lineno]
                checked += 1
    assert blocks and checked >= 2
