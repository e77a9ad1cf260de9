"""The README's stated values, checked against the code.

The "Library quick start" block is run as written.  Every bare expression
in it states its value in a comment, on its own line or on the line below:
the text up to the first double space.  A plain literal must equal the
result exactly; ``~2.7e-12`` states a value to the digits shown, so the
result must round to it.

The "Command line" section's JSON outputs (a ``json`` block under a
subcommand's heading, or a ``# {...}`` comment below its command) must
parse to exactly what that command prints.
"""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from conetorsion import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class Approx:
    """A value stated to the significant digits of its literal."""

    def __init__(self, literal: str):
        self.literal = literal
        mantissa = literal.lower().split("e")[0]
        self.digits = len(re.sub(r"\D", "", mantissa).lstrip("0"))

    def __eq__(self, other):
        return float(f"{other:.{self.digits - 1}e}") == float(self.literal)

    def __repr__(self):
        return f"~{self.literal}"


def _stated(comment: str):
    text = comment.lstrip("#").strip().split("  ", 1)[0]
    text = re.sub(r"~([-+0-9.eE]+)", r'Approx("\1")', text)
    return eval(text, {"__builtins__": {}, "Approx": Approx})


def _comments(block: str) -> tuple[dict, set]:
    """Comment text by line, and the lines that hold code."""
    comments, code = {}, set()
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.string
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.add(tok.start[0])
    return comments, code


def test_readme_quick_start_states_its_values():
    block = _quick_start()
    comments, code = _comments(block)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        line = stmt.end_lineno
        if line not in comments:
            line += 1
        assert line in comments and (line == stmt.end_lineno or line not in code), (
            f"README line {stmt.lineno} states no value")
        got = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        want = _stated(comments[line])
        assert got == want, f"README line {stmt.lineno}: {ast.unparse(stmt)} is {got!r}"
        checked.append(ast.unparse(stmt))
    assert checked


def _stated_output(heading: str, command: str):
    """The JSON the README states for ``command`` under the subcommand
    ``heading``: the section's json block, else the comment below it."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = re.split(r"\n##+ ", text.split(f"### `{heading}`", 1)[1], maxsplit=1)[0]
    lines = section.splitlines()
    assert command in lines, f"README section {heading!r} does not list {command!r}"
    if "```json\n" in section:
        return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    below = lines[lines.index(command) + 1]
    assert below.startswith("# {"), f"README states no output for {command!r}"
    return json.loads(below[2:])


@pytest.mark.parametrize("heading, argv", [
    ("conetorsion torsion cone", "torsion cone --base torus2 --scale 2"),
    ("conetorsion zeta", "zeta --base torus2 --scale 2 --degree 0 --shift 0.5"),
    ("conetorsion zeros", "zeros --kind mixed --nu 2.5 --alpha -1.0 --count 3"),
    ("conetorsion torsion disc", "torsion disc --nu 1 --radius 1"),
], ids=["torsion-cone", "zeta", "zeros", "torsion-disc"])
def test_readme_cli_outputs_are_what_the_cli_prints(heading, argv):
    # the same keys, and each value of the same JSON type and bitwise equal
    stated = _stated_output(heading, f"conetorsion {argv}")
    text, code = cli.run(argv.split())
    assert code == 0
    assert json.dumps(stated, sort_keys=True) == json.dumps(json.loads(text), sort_keys=True)
