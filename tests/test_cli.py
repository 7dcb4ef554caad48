import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewsieve
import skewsieve.checks as checks
from skewsieve.cli import run

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
    code, _, err = invoke(capsys, ["char", "--shape", "2,1"])
    assert code == 2
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


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT)
def test_text_output_is_pinned(capsys, argv, expected):
    assert invoke(capsys, argv) == (0, expected, "")


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
    monkeypatch.setattr(characters, "_nested", lambda outer_rows, inner_rows: True)
    code, out, err = invoke(capsys, ["eval-root", "--shape", "1", "--vars", "2", "--order", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1

    # determinant digits that do not add up to the filling count
    count = schur.count_ssyt
    monkeypatch.setattr(schur, "count_ssyt", lambda shape, k: count(shape, k) + 1)
    code, out, err = invoke(capsys, ["specialize", "--shape", "2,1", "--vars", "3"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: the digits") and err.count("\n") == 1
