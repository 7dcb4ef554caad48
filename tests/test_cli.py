import argparse
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import skewsieve
import skewsieve.checks as checks
from skewsieve import _meter, schur
from skewsieve.cli import build_parser, run
from skewsieve.qpoly import QPoly, divisors
from skewsieve.schur import count_ssyt
from skewsieve.shapes import SkewShape

SEVEN_ROWS = "9,9,6,6,6,4,1/2,1,1,1"
VERIFY_NAMES = [
    "decomposition 27,27,18,9/18,9 (4 vars, mod 9)",
    "decomposition 12,12,4/8,4 (6 vars, mod 4)",
    "shifted decompositions all leave the basis span",
    "3-quotient of 9,9,6,6,6,4,1/2,1,1,1",
    "matching permutation 2147356 with sign -1 = character sign",
    "index matrix of 13,10,10,10,6/7,4,4,4 and its 3-runner classes",
]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(what, command):
    """The stderr of a command refused by the work meter as it charged ``what``."""
    return f"error: the {what} cost is above the limit of 10^12 units for {command}\n"


def test_specialize_text(capsys):
    code, out, _ = invoke(capsys, ["specialize", "--shape", "1", "--vars", "2"])
    assert code == 0
    assert out.strip() == "1 + q"
    # a 500-cell row: q-binomial tables deeper than the recursion limit
    code, out, _ = invoke(
        capsys, ["specialize", "--shape", "500", "--vars", "2", "--mod", "3"]
    )
    assert code == 0
    assert out.strip() == "167 + 167*q + 167*q^2"


def test_specialize_reduced_and_json(capsys):
    code, out, _ = invoke(
        capsys,
        ["specialize", "--shape", "2,1/1", "--vars", "2", "--mod", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == "2,1/1"
    assert payload["mod"] == 2
    # s_{(2,1)/(1)} with two letters is (1+q)^2; reduced mod q^2-1 that is 2 + 2q
    assert payload["poly"] == {"0": 2, "1": 2}


def test_specialize_full_flag_matches(capsys):
    # the unreduced polynomial folded mod q^4 - 1 is the reduced one
    _, full, _ = invoke(
        capsys, ["specialize", "--shape", "3,2/1", "--vars", "3", "--json"]
    )
    folded = [0] * 4
    for e, c in json.loads(full)["poly"].items():
        folded[int(e) % 4] += c
    _, reduced, _ = invoke(
        capsys,
        ["specialize", "--shape", "3,2/1", "--vars", "3", "--mod", "4", "--json"],
    )
    assert json.loads(reduced)["poly"] == {str(e): c for e, c in enumerate(folded) if c}
    with pytest.raises(SystemExit) as exc:  # the flag is gone
        run(["specialize", "--shape", "3,2/1", "--vars", "3", "--mod", "4", "--full"])
    assert exc.value.code == 2


def test_analyze_json(capsys):
    code, out, _ = invoke(
        capsys,
        ["analyze", "--shape", "12,12,4/8,4", "--vars", "6", "--mod", "4", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "csp"
    assert payload["a"] == {"1": 12, "2": 264, "4": 1576440}
    assert payload["csp_guaranteed"] is False
    assert payload["orbit_counts"] == payload["a"]


def test_analyze_divisor_keys_ascend_past_one_digit(capsys):
    argv = ["analyze", "--shape", "12", "--vars", "12", "--mod", "12"]
    code, out, _ = invoke(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(out)
    expected = [("1", 1), ("2", 1), ("3", 3), ("4", 8), ("6", 75), ("12", 112632)]
    assert payload["verdict"] == "csp"
    assert list(payload["a"].items()) == expected
    assert list(payload["orbit_counts"].items()) == expected
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[1:] == [f"a_{d} = {a}" for d, a in expected] + ["csp guaranteed: yes"]


def test_specialize_many_variables_answers_fast():
    # a q-binomial with n far below k costs n steps, not k - 1
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "skewsieve", "specialize", "--shape", "1", "--vars", "20000", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["poly"]) == 20000


def test_analyze_shifted(capsys):
    code, out, _ = invoke(
        capsys,
        [
            "analyze",
            "--shape",
            "27,27,18,9/18,9",
            "--vars",
            "4",
            "--mod",
            "9",
            "--shift",
            "3",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not-pre-csp"
    assert payload["a"] is None


def test_quotient_text(capsys):
    code, out, _ = invoke(
        capsys, ["quotient", "--shape", "9,9,6,6,6,4,1/2,1,1,1", "--order", "3"]
    )
    assert code == 0
    assert out.strip() == "4,3/1 ; 2 ; 2,1,1"


def test_quotient_missing(capsys):
    code, out, _ = invoke(capsys, ["quotient", "--shape", "1", "--order", "2", "--json"])
    assert code == 0
    assert json.loads(out) == {"exists": False, "components": None}


def test_core_with_abacus(capsys):
    code, out, _ = invoke(
        capsys, ["core", "--shape", "9,9,6,6,6,4,1", "--order", "3", "--abacus"]
    )
    assert code == 0
    assert out.strip().endswith("2")
    assert "●" in out


def test_bst_and_char(capsys):
    code, out, _ = invoke(
        capsys, ["bst", "--shape", "2,1", "--order", "3", "--show", "1"]
    )
    assert code == 0
    assert "count: 1" in out and "epsilon: -1" in out
    code, out, _ = invoke(capsys, ["bst", "--shape", "2,1", "--order", "2"])
    assert code == 0 and "count: 0" in out  # strip size does not divide 3
    code, out, _ = invoke(
        capsys, ["char", "--shape", "2,1", "--type", "3", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"value": -1, "bst_count": 1, "epsilon": -1}
    code, out, _ = invoke(capsys, ["char", "--shape", "2,1", "--nu", "1,1,1"])
    assert code == 0
    assert out.strip() == "2"
    with pytest.raises(SystemExit) as exc:
        run(["char", "--shape", "2,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: one of the arguments --type --nu is required\n")
    # more strips than the interpreter's recursion limit
    ones = ",".join(["1"] * 1200)
    code, out, _ = invoke(capsys, ["char", "--shape", "1200", "--nu", ones])
    assert code == 0 and out == "1\n"


def test_eval_root_and_perm(capsys):
    code, out, _ = invoke(
        capsys, ["eval-root", "--shape", "2,2", "--vars", "2", "--order", "2"]
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = invoke(
        capsys, ["perm", "--shape", "9,9,6,6,6,4,1/2,1,1,1", "--order", "3", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["one_line"] == "2147356"
    assert payload["sign"] == -1


def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, ["verify"])
    assert code == 0
    assert "6/6 checks passed" in out


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    real = checks.analyze

    def off_by_one_at_mod_9(shape, k, m):
        report = real(shape, k, m)
        if m != 9:
            return report
        dec = report.decomposition
        wrong = dec._replace(coefficients={**dec.coefficients, 1: 2})
        return report._replace(decomposition=wrong)

    monkeypatch.setattr(checks, "analyze", off_by_one_at_mod_9)
    code, out, err = invoke(capsys, ["verify"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"FAIL {VERIFY_NAMES[0]}",
        "     computed ('pre-csp', {1: 2, 3: -3, 9: 54665112})",
        *(f"ok   {name}" for name in VERIFY_NAMES[1:]),
        "5/6 checks passed",
    ]


# one text-mode call per subcommand, its stdout pinned byte for byte
PINNED_STDOUT = [
    pytest.param(["specialize", "--shape", "3,2/1", "--vars", "2"], "q + 2*q^2 + q^3\n", id="specialize"),
    pytest.param(
        ["analyze", "--shape", "12,12,4/8,4", "--vars", "6", "--mod", "4"],
        "verdict: csp\na_1 = 12\na_2 = 264\na_4 = 1576440\ncsp guaranteed: no\n",
        id="analyze",
    ),
    pytest.param(
        ["analyze", "--shape", "6,4,2/2,2", "--vars", "4", "--mod", "2", "--shift", "1"],
        "verdict: pre-csp\na_1 = -12\na_2 = 636\n",
        id="analyze-shift",
    ),
    pytest.param(
        ["quotient", "--shape", "3,2/1", "--order", "2", "--abacus"],
        "outer:\n0 1\n· ·\n● ·\n● ·\ninner:\n0 1\n● ·\n● ·\n1,1 ; 0\n",
        id="quotient-abacus",
    ),
    pytest.param(
        ["core", "--shape", "5,3,1", "--order", "2", "--abacus"],
        "0 1\n· ●\n· ·\n● ·\n· ●\n1\n",
        id="core-abacus",
    ),
    pytest.param(
        ["bst", "--shape", "3,3", "--order", "2", "--show", "1"],
        "count: 3\nepsilon: -1\n1 2 3\n1 2 3\n",
        id="bst-show",
    ),
    pytest.param(
        # 80 tableaux, branching at several depths: fixes the listing order
        ["bst", "--shape", "4,4,2,2", "--order", "2", "--show", "6"],
        "count: 80\nepsilon: 1\n"
        "1 3 5 6\n1 3 5 6\n2 4\n2 4\n\n"
        "1 2 5 6\n1 2 5 6\n3 4\n3 4\n\n"
        "1 1 5 6\n2 2 5 6\n3 4\n3 4\n\n"
        "1 1 5 6\n2 3 5 6\n2 3\n4 4\n\n"
        "1 2 5 6\n1 2 5 6\n3 3\n4 4\n\n"
        "1 1 5 6\n2 2 5 6\n3 3\n4 4\n",
        id="bst-show-six",
    ),
    pytest.param(
        ["bst", "--shape", "9,8,8,8/2,1", "--order", "2", "--show", "1"],
        "count: 0\nepsilon: 0\n",
        id="bst-show-no-quotient",
    ),
    pytest.param(
        ["char", "--shape", SEVEN_ROWS, "--type", "3"],
        "value: -582120\nbst_count: 582120\nepsilon: -1\n",
        id="char-type",
    ),
    pytest.param(
        ["char", "--shape", "2,2", "--type", "4"],
        "value: 0\nbst_count: 0\nepsilon: 0\n",
        id="char-type-no-quotient",
    ),
    pytest.param(
        ["eval-root", "--shape", SEVEN_ROWS, "--vars", "9", "--order", "3"], "-666\n", id="eval-root"
    ),
    pytest.param(
        ["eval-root", "--shape", "2,2", "--vars", "4", "--order", "4"], "0\n", id="eval-root-no-quotient"
    ),
    pytest.param(
        ["eval-root", "--shape", "3,2/1", "--vars", "2", "--order", "2"], "0\n", id="eval-root-long-column"
    ),
    pytest.param(["perm", "--shape", SEVEN_ROWS, "--order", "3"], "2147356\n", id="perm"),
    pytest.param(
        ["verify"],
        "".join(f"ok   {name}\n" for name in VERIFY_NAMES) + "6/6 checks passed\n",
        id="verify",
    ),
]


# one --json call per subcommand that takes the flag, its stdout pinned byte for byte
PINNED_JSON = [
    pytest.param(
        ["specialize", "--shape", "3,2/1", "--vars", "3", "--mod", "4"],
        {"shape": "3,2/1", "vars": 3, "mod": 4, "poly": {"0": 5, "1": 5, "2": 6, "3": 5}},
        id="specialize",
    ),
    pytest.param(
        ["analyze", "--shape", "12,12,4/8,4", "--vars", "6", "--mod", "4"],
        {"shape": "12,12,4/8,4", "vars": 6, "m": 4, "verdict": "csp", "a": {"1": 12, "2": 264, "4": 1576440},
         "row_diffs_divisible": True, "vars_divisible": False, "border_strip": False, "csp_guaranteed": False,
         "orbit_counts": {"1": 12, "2": 264, "4": 1576440}},
        id="analyze",
    ),
    pytest.param(
        ["analyze", "--shape", "6,4,2/2,2", "--vars", "4", "--mod", "2", "--shift", "1"],
        {"shape": "6,4,2/2,2", "vars": 4, "shift": 1, "m": 2, "verdict": "pre-csp", "a": {"1": -12, "2": 636}},
        id="analyze-shift",
    ),
    pytest.param(
        ["quotient", "--shape", "3,2/1", "--order", "2", "--abacus"],
        {"exists": True, "components": ["1,1", "0"]},
        id="quotient-abacus",
    ),
    pytest.param(["core", "--shape", "5,3,1", "--order", "2", "--abacus"], {"core": "1"}, id="core-abacus"),
    pytest.param(
        ["bst", "--shape", "3,3", "--order", "2", "--show", "2"],
        {"count": 3, "epsilon": -1, "value": -3, "tableaux": [{"heights": [1, 1, 1], "total_height": 3},
                                                              {"heights": [0, 0, 1], "total_height": 1}]},
        id="bst-show",
    ),
    pytest.param(
        ["char", "--shape", SEVEN_ROWS, "--type", "3"],
        {"value": -582120, "bst_count": 582120, "epsilon": -1},
        id="char-type",
    ),
    pytest.param(["char", "--shape", "2,1", "--nu", "1,1,1"], {"value": 2}, id="char-nu"),
    pytest.param(["eval-root", "--shape", SEVEN_ROWS, "--vars", "9", "--order", "3"], {"value": -666}, id="eval-root"),
    pytest.param(
        ["perm", "--shape", SEVEN_ROWS, "--order", "3"],
        {"perm": [2, 1, 4, 7, 3, 5, 6], "one_line": "2147356", "sign": -1},
        id="perm",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT)
def test_text_output_is_pinned(capsys, argv, expected):
    assert invoke(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize("argv, expected", PINNED_JSON)
def test_json_output_is_pinned(capsys, argv, expected):
    # json.dumps of the expected dict gives the bytes: the key order is pinned too
    assert invoke(capsys, argv + ["--json"]) == (0, json.dumps(expected) + "\n", "")


def test_every_subcommand_has_pinned_output():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    text = {param.values[0][0] for param in PINNED_STDOUT}
    as_json = {param.values[0][0] for param in PINNED_JSON}
    for name, sub in commands.items():
        assert name in text, name
        assert name in as_json or "--json" not in sub._option_string_actions, name


def test_char_takes_exactly_one_type(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["char", "--shape", "2,1", "--type", "3", "--nu", "1,1,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --nu: not allowed with argument --type\n")


@pytest.mark.parametrize(
    "argv, command",
    [
        (["quotient", "--shape", "1"], "quotient"),
        (["quotient", "--shape", "1", "--abacus", "--json"], "quotient"),
        (["core", "--shape", "1", "--abacus"], "core --abacus"),
    ],
)
def test_d_tuple_outputs_are_bounded(capsys, argv, command):
    # the answer is D components or D display columns, so the limit is checked before any work
    for order in (10**5 + 1, 10**9):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv + ["--order", str(order)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: --order {order} is above the limit of 10^5 for {command}\n"
    code, out, err = invoke(capsys, argv + ["--order", str(10**5)])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize(
    "command, cells",
    [("core", 2 * (10**8 // 2 + 1)), ("quotient", 2 * (10**8 // 2 + 1) + 2)],
)
def test_abacus_display_height_is_bounded(capsys, command, cells):
    # a display has a row for every D bead positions, so a long first part makes it tall
    start = time.perf_counter()
    code, out, err = invoke(capsys, [command, "--shape", str(10**8), "--order", "2", "--abacus"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: the display cell count {cells} is above the limit of 10^6 for {command} --abacus\n"
    code, out, err = invoke(capsys, ["core", "--shape", "1000", "--order", "2", "--abacus"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 501 + 1


def test_unbounded_orders_stay_fast(capsys):
    # core without a display and perm read only the l beads, whatever D is
    assert invoke(capsys, ["core", "--shape", "3,1", "--order", str(10**9)]) == (0, "3,1\n", "")
    code, out, err = invoke(capsys, ["perm", "--shape", "3,1", "--order", str(10**9)])
    assert (code, out) == (1, "") and err == "error: cores differ\n"


def test_perm_on_20000_one_cell_rows_answers_fast(capsys):
    # the sign is the cycle parity, not an O(l^2) inversion count
    rows = 20000
    start = time.perf_counter()
    code, out, _ = invoke(capsys, ["perm", "--shape", ",".join(["1"] * rows), "--order", "2", "--json"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    payload = json.loads(out)
    # odd rows pair with the next even row: rows/2 transpositions
    assert payload["perm"] == [i + 1 if i % 2 else i - 1 for i in range(1, rows + 1)]
    assert payload["sign"] == (-1) ** (rows // 2)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["specialize", "--shape", "2,1", "--vars", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--shape", "2,1", "--vars", "2", "--mod", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["specialize", "--shape", "2,1", "--vars", "2", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the integer flags take ASCII digits only, as --shape and --nu do
    for text in ("1_0", "\u0663", "+2", "-", " - 3", "2.0"):
        with pytest.raises(SystemExit) as exc:
            run(["specialize", "--shape", "2,1", "--vars", text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --vars: not an integer: {text!r}\n")
    for argv, message in (
        (["specialize", "--shape", "2,1", "--vars", "0"], "argument --vars: must be a positive integer: 0"),
        (["analyze", "--shape", "2,1", "--vars", "2", "--mod", "2", "--shift", "-1"],
         "argument --shift: must be nonnegative: -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert run(["specialize", "--shape", "2,1", "--vars", " 2 "]) == 0
    assert capsys.readouterr().out == "q + q^2\n"


def test_shape_parse_error_reports_position(capsys):
    for argv in (
        ["specialize", "--shape", "2,x,1", "--vars", "2"],
        ["specialize", "--shape", "\u0661", "--vars", "2"],
        ["specialize", "--shape", "\u00b2", "--vars", "2"],
        ["char", "--shape", "2", "--nu", "1,,1"],
        ["char", "--shape", "2", "--nu", "+2"],
        ["char", "--shape", "10", "--nu", "1_0"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "position" in capsys.readouterr().err
    # offsets count from the start of the whole OUTER/INNER text
    for argv, message in (
        (["specialize", "--shape", "3,2/x", "--vars", "2"], "invalid partition at position 4: '3,2/x'"),
        (["analyze", "--shape", "3,2/1, x", "--vars", "2", "--mod", "2"], "invalid partition at position 6: '3,2/1, x'"),
        (["bst", "--shape", "3,2/1/1", "--order", "2"], "invalid shape at position 5: '3,2/1/1'"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --shape: {message}\n")


def test_import_leaves_out_dataclasses_and_inspect():
    # both cost milliseconds of start-up in every fresh process
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); import skewsieve.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_domain_errors_exit_1(capsys):
    code, _, err = invoke(capsys, ["perm", "--shape", "1", "--order", "2"])
    assert code == 1
    assert "cores differ" in err
    code, _, err = invoke(
        capsys, ["eval-root", "--shape", "2,1", "--vars", "3", "--order", "2"]
    )
    assert code == 1


def test_output_is_deterministic(capsys):
    argv = ["analyze", "--shape", "6,4,2/2,2", "--vars", "4", "--mod", "2", "--json"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_analyze_modulus_is_bounded(capsys):
    # the limit is checked before any work, so a huge modulus answers at once
    for mod in (10**12 + 1, 10**20):
        code, out, err = invoke(capsys, ["analyze", "--shape", "2,1", "--vars", "2", "--mod", str(mod)])
        assert (code, out) == (1, "")
        assert err == f"error: --mod {mod} is above the limit of 10^12 for analyze\n"
    code, out, err = invoke(capsys, ["analyze", "--shape", "2,1", "--vars", "2", "--mod", str(10**12)])
    assert code == 0 and err == ""
    assert out.startswith("verdict: ")


def test_analyze_shift_is_bounded(capsys):
    # the shift pads that many zeros, so the limit is checked before any work
    argv = ["analyze", "--shape", "2,1", "--vars", "2", "--mod", str(10**12), "--shift"]
    for shift in (10**6 + 1, 10**11):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv + [str(shift)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: --shift {shift} is above the limit of 10^6 for analyze\n"
    code, out, err = invoke(capsys, argv + [str(10**6)])
    assert (code, out, err) == (0, "verdict: not-pre-csp\n", "")


KRONECKER_REFUSALS = [
    ("Kronecker unpacking", ["analyze", "--shape", "5", "--vars", "3000001", "--mod", "3"]),
    ("determinant", ["analyze", "--shape", "3,2", "--vars", "100000", "--mod", "7"]),
    ("determinant", ["analyze", "--shape", "4,3,2,1", "--vars", "3000", "--mod", "7", "--shift", "1"]),
    ("determinant", ["specialize", "--shape", "3,2,1", "--vars", "100000"]),
    ("Kronecker unpacking", ["specialize", "--shape", "40", "--vars", "200000", "--mod", "1000"]),
    ("Kronecker unpacking", ["specialize", "--shape", "3,2", "--vars", "1" + "0" * 300, "--mod", "7"]),
    ("Kronecker unpacking", ["analyze", "--shape", "3,2", "--vars", "1" + "0" * 300, "--mod", "7"]),
]


@pytest.mark.parametrize(
    "what, argv", KRONECKER_REFUSALS, ids=[" ".join(argv[:5])[:40] for _, argv in KRONECKER_REFUSALS]
)
def test_kronecker_determinant_is_bounded(capsys, what, argv):
    # each took about 10 s or more, or would never finish, when the determinant was built;
    # the kernels charge their work before it runs, so each is refused before the bulk of it.
    # Building the six entries of 3,2,1 at k = 10^5 alone takes about 0.5 s, so each entry of
    # a block is charged its first elimination update before any is built.  The one-row
    # shapes, and 3,2 at 10^300 letters, are refused by the per-bit unpacking charge, taken
    # before any entry is built
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    assert time.perf_counter() - start < (0.1 if argv[2] == "3,2,1" and argv[4] == "100000" else 1.0)
    assert (code, out, err) == (1, "", refused(what, argv[0]))


def test_coefficient_count_comes_before_the_determinant(capsys):
    # without --mod, |λ/μ|(k - 1) + 1 coefficients would be printed
    code, out, err = invoke(capsys, ["specialize", "--shape", "3,2", "--vars", "1" + "0" * 300])
    assert (code, out) == (1, "")
    assert err == f"error: the coefficient count {5 * 10**300 - 4} is above the limit of 10^6 for specialize\n"


def test_a_limit_names_the_bits_of_a_size_past_the_digit_limit(capsys):
    # 4300-digit flags are read, but their product has twice as many digits
    big = "1" + "0" * 4299
    code, out, err = invoke(capsys, ["specialize", "--shape", big, "--vars", big])
    terms = 10**4299 * (10**4299 - 1) + 1
    assert (code, out) == (1, "")
    assert err == f"error: the coefficient count of {terms.bit_length()} bits is above the limit of 10^6 for specialize\n"


def one_cell_on_rows(rows):
    return ",".join(["1"] * rows) + "/" + ",".join(["1"] * (rows - 1))


def one_column(rows):
    return ",".join(["1"] * rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["specialize", "--shape", one_column(400), "--vars", "2"],
        ["analyze", "--shape", one_column(400), "--vars", "3", "--mod", "2"],
        ["specialize", "--shape", one_column(600), "--vars", "2"],
        ["char", "--shape", one_column(400), "--type", "1"],
        ["bst", "--shape", one_column(400), "--order", "1"],
        ["eval-root", "--shape", one_column(800), "--vars", "2", "--order", "1"],
    ],
    ids=[
        "specialize 400 rows",
        "analyze 400 rows",
        "specialize 600 rows",
        "char 400 rows",
        "bst 400 rows",
        "eval-root 800 rows",
    ],
)
def test_tall_determinant_is_refused_on_rows_alone(capsys, argv):
    # the rows are charged before the block is built, so each is refused before any
    # work on it; the last three, on quotient routes, ran 14.3 s, 14.3 s and 12.6 s.
    # A single column is one block of all its rows; one cell on as many rows is not
    # (see test_tall_determinant_below_the_row_limit_answers)
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", refused("determinant", argv[0]))


def test_root_values_are_bounded(capsys):
    # two 200-row counts at d = 2, then one of 400 rows at d = 1: 18.3 s with no budget;
    # the meter refuses at the second 200-row block, after about 1 s of work
    argv = ["analyze", "--shape", one_column(400), "--vars", "400", "--mod", "2"]
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    assert time.perf_counter() - start < 2.5
    assert (code, out, err) == (1, "", refused("determinant", "analyze"))


def in_a_child(argv, **env):
    """``python -m skewsieve ARGV`` in a child process, killed if it runs past 10 s, so a
    stalled route fails at once: (exit code, stdout, stderr, seconds)."""
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    environ = dict(os.environ, PYTHONPATH=src)
    environ.pop("PYTHONINTMAXSTRDIGITS", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "skewsieve", *argv],
        env=dict(environ, **env),
        capture_output=True,
        text=True,
        timeout=10,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "what, argv",
    [
        ("factorial ledger", ["char", "--shape", "1000000", "--type", "1"]),
        ("factorial ledger", ["char", "--shape", "3000000", "--type", "1"]),
        ("factorial ledger", ["bst", "--shape", "3000000", "--order", "1"]),
        ("factorial ledger", ["char", "--shape", "3000000,3000000", "--type", "1"]),
        ("factorial ledger", ["char", "--shape", one_cell_on_rows(2000), "--type", "1"]),
        ("factorial ledger", ["bst", "--shape", one_cell_on_rows(2000), "--order", "1"]),
        ("determinant", ["specialize", "--shape", "3,2,1", "--vars", "100000"]),
    ],
    ids=[
        "char one row of 10^6",
        "char one row of 3*10^6",
        "bst one row of 3*10^6",
        "char two rows of 3*10^6",
        "char one cell on 2000 rows",
        "bst one cell on 2000 rows",
        "specialize 3,2,1 k=10^5",
    ],
)
def test_metered_refusals_come_at_once(what, argv):
    # the factorial ledger of a rectangular character, n! prod b! / prod a!, is charged from
    # the bead rows before any factorial is taken.  Uncharged, the first case answers after
    # about 15 s, the next two after about 90 s, and the next three run past 100 s (the
    # 2000-row ones in the factorial products, once Aitken's matrix splits into 1 x 1 blocks).
    # The last case's Kronecker entries are charged their first updates before they are built
    code, out, err, seconds = in_a_child(argv)
    assert seconds < 1.0
    assert (code, out, err) == (1, "", refused(what, argv[0]))


@pytest.mark.parametrize("shape", ["0", one_cell_on_rows(300)], ids=["empty shape", "one cell on 300 rows"])
def test_shapes_with_one_tableau_answer(shape):
    # Aitken's matrix of one cell on 300 rows splits into 1 x 1 blocks, each read off
    # its entry, and the factorials of its 300 bead rows are charged far below the limit;
    # the empty shape has no bead rows to charge
    assert in_a_child(["char", "--shape", shape, "--type", "1"])[:3] == (0, "value: 1\nbst_count: 1\nepsilon: 1\n", "")
    assert in_a_child(["bst", "--shape", shape, "--order", "1"])[:3] == (0, "count: 1\nepsilon: 1\n", "")


def staircase(rows):
    return ",".join(str(i) for i in range(rows, 0, -1))


@pytest.mark.parametrize(
    "what, argv",
    [
        (
            "determinant",
            ["specialize", "--shape", staircase(2000) + "/" + staircase(1999), "--vars", "2", "--mod", "7"],
        ),
        ("strip walk", ["char", "--shape", staircase(12), "--nu", ",".join(["1"] * 78)]),
    ],
    ids=["specialize one cell on each of 2000 rows", "char 12-row staircase in 78 strips"],
)
def test_running_products_and_walks_are_metered(what, argv):
    # the first joins 2000 one-row blocks, 1 + 2^(8w) of about 2000 bits each, into one
    # running product, each join charged before it is taken; the second walks 8.9 * 10^6
    # bead visits, each strip's configurations charged before they are expanded.  Unmetered,
    # they answer after 8-14 s and 9-13 s (CPython 3.11, 2 CPUs); the meter runs out at
    # 10^12 units, after 1-2 s of that work
    code, out, err, seconds = in_a_child(argv)
    assert seconds < 3.0
    assert (code, out, err) == (1, "", refused(what, argv[0]))


def test_the_product_of_root_value_components_is_metered():
    # 2000 one-row components of 50 cells, each counted with 10^50 letters in about 8100
    # bits, join one running product: unmetered, it ran past 60 s before the answer was
    # refused for its digits; the meter runs out after 2.4-2.6 s (CPython 3.11, 2 CPUs)
    argv = ["eval-root", "--shape", ",".join(["100000"] * 2000), "--vars", str(2000 * 10**50), "--order", "2000"]
    code, out, err, seconds = in_a_child(argv)
    assert seconds < 5.0
    assert (code, out, err) == (1, "", refused("root-value product", "eval-root"))


def test_running_products_and_walks_below_the_limit_answer():
    # one cell on each of 200 rows: (1 + q)^200 folded mod q^7 - 1
    folded = [sum(comb(200, i) for i in range(j, 201, 7)) for j in range(7)]
    argv = ["specialize", "--shape", staircase(200) + "/" + staircase(199), "--vars", "2", "--mod", "7"]
    assert in_a_child(argv)[:3] == (0, f"{QPoly(folded)}\n", "")
    # the standard tableaux of the 9-row staircase, 1.5 * 10^5 bead visits
    argv = ["char", "--shape", staircase(9), "--nu", ",".join(["1"] * 45)]
    assert in_a_child(argv)[:3] == (0, "273035280663535522487992320\n", "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["specialize", "--shape", "1" + "0" * 5000, "--vars", "2"], "--shape"),
        (["specialize", "--shape", "2,1", "--vars", "1" * 5000], "--vars"),
        (["char", "--shape", "2,1", "--nu", "1," + "2" * 5000], "--nu"),
    ],
    ids=["a 5001-digit part", "a 5000-digit --vars", "a 5000-digit part of --nu"],
)
def test_integer_literals_past_the_digit_limit_are_usage_errors(capsys, argv, flag):
    # each run of digits is measured before int() reads it, so neither the interpreter's
    # int-str message nor the argument reaches stderr
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: an integer is above the limit of 4300 digits\n")
    assert len(err) < 500


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "--shape", "8000,8000", "--type", "1"],
        ["char", "--shape", "8000,8000", "--type", "1", "--json"],
        ["bst", "--shape", "8000,8000", "--order", "1"],
        ["eval-root", "--shape", "27,27,18,9/18,9", "--vars", "1" + "0" * 100, "--order", "1"],
        ["analyze", "--shape", "27,27,18,9/18,9", "--vars", "1" + "0" * 100, "--mod", "2"],
    ],
    ids=["char", "char --json", "bst", "eval-root", "analyze"],
)
def test_answers_past_the_digit_limit_are_refused(argv):
    # the answer's bit length is checked before it is converted, so the interpreter's own
    # cap, which PYTHONINTMAXSTRDIGITS sets, never shows through
    for cap in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
        code, out, err, seconds = in_a_child(argv, **cap)
        assert seconds < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: an answer is above the limit of 4300 digits for {argv[0]}\n"


def test_answers_below_the_digit_limit_do_not_depend_on_the_environment():
    # C(4000, 2000) / 2001 has 1200 digits, past the smallest cap the interpreter takes
    argv = ["char", "--shape", "2000,2000", "--type", "1"]
    answers = {in_a_child(argv, **cap)[:3] for cap in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"})}
    assert len(answers) == 1
    code, out, err = answers.pop()
    assert (code, err) == (0, "")
    assert out == f"value: {comb(4000, 2000) // 2001}\nbst_count: {comb(4000, 2000) // 2001}\nepsilon: 1\n"


def test_tall_determinant_below_the_row_limit_answers(capsys):
    # one cell on l rows splits into l 1 x 1 blocks, each charged on its own;
    # the 400-row ones were refused while the estimate charged all l rows at once
    start = time.perf_counter()
    argv = ["specialize", "--shape", one_cell_on_rows(200), "--vars", "2"]
    assert invoke(capsys, argv) == (0, "1 + q\n", "")
    argv = ["specialize", "--shape", one_cell_on_rows(400), "--vars", "2"]
    assert invoke(capsys, argv) == (0, "1 + q\n", "")
    argv = ["analyze", "--shape", one_cell_on_rows(400), "--vars", "3", "--mod", "2"]
    assert invoke(capsys, argv) == (0, "verdict: csp\na_1 = 1\na_2 = 1\ncsp guaranteed: no\n", "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "shape, k, m, nonzero",
    [
        (
            "27,27,18,9/18,9",
            10**6,
            10**4,
            {
                5000: -int(
                    "82450560437830614946115051427263566183502788186247383318269393850888635452183"
                    "746744351215809894615161323408665015787773437500000000000"
                )
            },
        ),
        (SEVEN_ROWS, 360, 360, {120: -92744228127262588800}),
        # the largest divisor count at the --mod limit, tau(m) = 6720
        ("2,1", 963761198400, 963761198400, {321253732800: -1}),
    ],
    ids=["27,27,18,9/18,9 k=10^6 m=10^4", "seven rows k=m=360", "2,1 k=m=963761198400"],
)
def test_analyze_with_mod_dividing_vars_reads_root_values(capsys, shape, k, m, nonzero):
    # one runner pass per divisor of m and no determinant budget: the first was
    # refused (estimated cost 3.2e21 units) and the second took 297 s by the determinant
    argv = ["analyze", "--shape", shape, "--vars", str(k), "--mod", str(m)]
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    json_code, json_out, _ = invoke(capsys, argv + ["--json"])
    assert time.perf_counter() - start < 1.0
    assert (code, json_code, err) == (0, 0, "")
    # a_m is pinned by the orbit sum: the d * a_d add up to the filling count
    count = count_ssyt(SkewShape.parse(shape), k)
    a = {d: nonzero.get(d, 0) for d in divisors(m)}
    a[m] = (count - sum(d * c for d, c in a.items())) // m
    assert sum(d * c for d, c in a.items()) == count
    lines = ["verdict: pre-csp", *(f"a_{d} = {c}" for d, c in a.items()), "csp guaranteed: no"]
    assert out == "\n".join(lines) + "\n"
    assert list(json.loads(json_out)["a"].items()) == [(str(d), c) for d, c in a.items()]


def test_bst_listing_is_bounded(capsys):
    # each listed tableau builds |λ/μ| / D strips, so min(N, count) times that is
    # checked before any tableau is listed
    staircase = ",".join(str(i) for i in range(24, 0, -2))
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["bst", "--shape", staircase, "--order", "2", "--show", "20000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: the listed strip count 1560000 is above the limit of 10^6 for bst\n"
    # N is capped by the tableau count: three tableaux of three strips each
    code, out, err = invoke(capsys, ["bst", "--shape", "3,3", "--order", "2", "--show", "1000000"])
    assert (code, err) == (0, "")
    assert out.count("\n\n") == 2


def test_closed_stdout_exits_quietly():
    # about 1.3 MB of output, well past a pipe buffer: the reader closes early
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewsieve", "specialize", "--shape", "1", "--vars", "100000"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(20) == b"1 + q + q^2 + q^3 + "
        proc.stdout.close()
        _, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (proc.returncode, err) == (1, b"")


def test_specialize_coefficient_count_is_bounded(capsys):
    # every coefficient up to the fold is printed
    code, out, err = invoke(capsys, ["specialize", "--shape", "2", "--vars", "600000"])
    assert (code, out) == (1, "")
    assert err == "error: the coefficient count 1199999 is above the limit of 10^6 for specialize\n"
    code, out, err = invoke(capsys, ["specialize", "--shape", "2", "--vars", "600000", "--mod", "7", "--json"])
    assert (code, err) == (0, "")
    assert sum(json.loads(out)["poly"].values()) == 600000 * 600001 // 2


def test_internal_errors_exit_3(capsys, monkeypatch):
    import skewsieve.characters as characters
    import skewsieve.cli as cli
    import skewsieve.schur as schur

    def broken_guarantee(*args, **kwargs):
        raise RuntimeError("guaranteed case came out pre-csp")

    monkeypatch.setattr(cli, "analyze", broken_guarantee)
    code, out, err = invoke(
        capsys, ["analyze", "--shape", "2,2", "--vars", "2", "--mod", "2"]
    )
    assert (code, out) == (3, "")
    assert err == "internal error: guaranteed case came out pre-csp\n"

    # a quotient for a size d does not divide: eval-root checks it even under -O
    monkeypatch.setattr(characters, "_runners", lambda shape, d: ({0: ([1], [0])}, (1,)))
    code, out, err = invoke(capsys, ["eval-root", "--shape", "1", "--vars", "2", "--order", "2"])
    assert (code, out) == (3, "")
    assert err == "internal error: a quotient exists but d does not divide the size\n"

    # determinant digits that do not add up to the filling count
    count = schur.count_ssyt
    monkeypatch.setattr(schur, "count_ssyt", lambda shape, k: count(shape, k) + 1)
    code, out, err = invoke(capsys, ["specialize", "--shape", "2,1", "--vars", "3"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: the digits") and err.count("\n") == 1


def test_the_meter_runs_only_inside_a_command(capsys, monkeypatch):
    import skewsieve.cli as cli
    assert invoke(capsys, ["specialize", "--shape", "2,1", "--vars", "2"])[0] == 0
    assert _meter.left is None
    assert invoke(capsys, ["char", "--shape", one_column(400), "--type", "1"])[0] == 1
    assert _meter.left is None

    def broken_guarantee(*args, **kwargs):
        raise RuntimeError("guaranteed case came out pre-csp")

    monkeypatch.setattr(cli, "analyze", broken_guarantee)
    assert invoke(capsys, ["analyze", "--shape", "2,2", "--vars", "2", "--mod", "2"])[0] == 3
    assert _meter.left is None

    # a limit of one bead visit refuses each walk at its first configuration, of two
    # beads: the listing inside its generator, after the ledger's few charges
    monkeypatch.setattr(_meter, "LIMIT", _meter.VISIT)
    for what, argv in [
        ("strip walk", ["char", "--shape", "3,3", "--nu", "2,2,2"]),
        ("tableau listing", ["bst", "--shape", "3,3", "--order", "2", "--show", "1"]),
    ]:
        assert invoke(capsys, argv) == (1, "", refused(what, argv[0]))
        assert _meter.left is None and _meter.command is None


def test_library_calls_are_not_capped():
    # the CLI refuses this at once (4 * 10^4 * 300^3 units for its one block); the
    # library answers it, about 0.5 s
    assert _meter.left is None
    assert count_ssyt(SkewShape.parse(one_column(300)), 2) == 0
    _meter.charge(10**30, "determinant")
    assert _meter.left is None


def test_specialize_counts_the_fillings_once(capsys, monkeypatch):
    calls, count = [], schur.count_ssyt

    def counting(shape, k):
        calls.append(k)
        return count(shape, k)

    monkeypatch.setattr(schur, "count_ssyt", counting)
    assert invoke(capsys, ["specialize", "--shape", "3,2/1", "--vars", "4"])[0] == 0
    assert calls == [4]


SPECIALIZATION = {"determinant", "Kronecker unpacking", "q-binomial entry"}
ROOT_VALUES = {"determinant", "root-value product"}
LEDGER = {"determinant", "factorial ledger"}
ROUTE_CHARGES = [
    (SPECIALIZATION, ["specialize", "--shape", "3,2/1", "--vars", "3"]),
    (SPECIALIZATION, ["analyze", "--shape", "3,2/1", "--vars", "3", "--mod", "2"]),
    (ROOT_VALUES, ["analyze", "--shape", "3,2/1", "--vars", "4", "--mod", "2"]),
    (SPECIALIZATION, ["analyze", "--shape", "3,2/1", "--vars", "4", "--mod", "2", "--shift", "1"]),
    (ROOT_VALUES, ["eval-root", "--shape", "3,3", "--vars", "4", "--order", "2"]),
    (LEDGER, ["char", "--shape", "3,3", "--type", "2"]),
    (LEDGER, ["bst", "--shape", "3,3", "--order", "2"]),
    ({"strip walk"}, ["char", "--shape", "3,3", "--nu", "2,2,2"]),
    (LEDGER | {"tableau listing"}, ["bst", "--shape", "3,3", "--order", "2", "--show", "1"]),
]


@pytest.mark.parametrize("labels, argv", ROUTE_CHARGES, ids=[" ".join(argv) for _, argv in ROUTE_CHARGES])
def test_every_determinant_route_is_metered(capsys, monkeypatch, labels, argv):
    # every route, walks and ledgers included, charges each layer it runs under that
    # layer's name; a layer that works without charging would escape the limit
    charged, charge = set(), _meter.charge

    def recording(units, what):
        charged.add(what)
        charge(units, what)

    monkeypatch.setattr(_meter, "charge", recording)
    assert invoke(capsys, argv)[0] == 0
    assert charged == labels


# Every module outside skewsieve that importing skewsieve.cli adds to a bare
# interpreter (-S, so no site hook has loaded any of them first), by
# top-level name.  C accelerators (_json, _sre, ...) differ between Python
# versions and are left out.
CLI_IMPORTS = {
    "__future__", "argparse", "collections", "contextlib", "copyreg", "enum", "functools",
    "genericpath", "gettext", "itertools", "json", "keyword", "math", "operator", "os",
    "posixpath", "re", "reprlib", "stat", "types", "typing", "warnings",
}


def test_importing_the_cli_adds_no_module_and_warms_no_table():
    # a fresh process compiles every module it imports, and a table filled
    # at import time is paid by every command, whether it reads it or not
    src = str(Path(skewsieve.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import skewsieve.cli\n"
        "from skewsieve.qpoly import gaussian_binomial\n"
        "print(*(set(sys.modules) - before))\n"
        "print(gaussian_binomial.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-E", "-S", "-c", code, src], capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    added, cached = proc.stdout.splitlines()
    outside = {name.partition(".")[0] for name in added.split()} - {"skewsieve"}
    private = {name for name in outside if name.startswith("_") and name != "__future__"}
    assert outside - private <= CLI_IMPORTS
    assert cached == "0"
