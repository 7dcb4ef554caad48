"""The narrative scripts under demos/ run to completion against the library
and print the bytes pinned under tests/demo_output/."""

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import skewsieve

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
SRC = str(Path(skewsieve.__file__).resolve().parent.parent)


@cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_is_pinned(demo):
    assert run_demo(demo).stdout == (HERE / "demo_output" / f"{demo.stem}.txt").read_bytes()
