"""The README's examples print what their comments say."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from skewsieve.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _block(language: str) -> list[str]:
    """The lines of the README's first fenced block in ``language``."""
    return re.search(rf"```{language}\n(.*?)```", README.read_text(), re.S).group(1).splitlines()


def test_quick_start_prints_its_comments():
    # a trailing "# text" is what its line prints, optionally followed by ", note";
    # a comment on a line of its own is what the line before it printed
    namespace: dict = {}
    printed = None
    checked = 0
    for line in _block("python"):
        if line.startswith("# "):
            assert printed == line[2:], line
            printed = None
            checked += 1
            continue
        assert printed is None, f"output not shown: {printed!r}"
        code, _, comment = line.partition("  # ")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, namespace)
        printed = out.getvalue().removesuffix("\n") or None
        if comment:
            assert printed == comment or comment.startswith(f"{printed}, "), line
            printed = None
            checked += 1
    assert printed is None, f"output not shown: {printed!r}"
    assert checked == 6


def test_commented_cli_examples_print_their_comments(capsys):
    examples = [line.partition("  # ") for line in _block("text") if "  # " in line]
    assert len(examples) == 2
    for command, _, comment in examples:
        assert run(shlex.split(command)[1:]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (comment.strip() + "\n", "")


def test_the_meter_labels_are_the_ones_charged():
    # the README's labels, out of parentheses, against the literal label of
    # every _meter.charge call in the library
    text = re.search(r"`<what>` is one of \w+ labels:(.*?)\n- ", README.read_text(), re.S).group(1)
    listed = set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", text)))
    charged = set()
    for path in (ROOT / "src" / "skewsieve").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_meter.charge":
                label = node.args[1]
                assert isinstance(label, ast.Constant), f"{path.name}:{node.lineno}"
                charged.add(label.value)
    assert listed == charged
