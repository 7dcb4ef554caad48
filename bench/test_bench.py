"""Tests for the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = inputs.generate(workload, 5, blocks=2)
    assert first == inputs.generate(workload, 5, blocks=2)
    assert first != inputs.generate(workload, 6, blocks=2)
    assert sum(map(len, inputs.generate(workload, 5))) >= inputs.MIN_OPS


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_blocks_have_the_same_mix_for_every_seed(workload):
    def mix(seed):
        return sorted(op[0] if op[0] != "cli" else op[1] for op in inputs.generate(workload, seed, blocks=1)[0])

    assert mix(1) == mix(2)


def _snapshot():
    import skewsieve

    owners = [m for name, m in sys.modules.items() if name == "skewsieve" or name.startswith("skewsieve.")]
    owners += [skewsieve.QPoly, skewsieve.Partition, skewsieve.SkewShape, skewsieve.Composition]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def _traced(workload, count, seed=3):
    wl = run.Workload(workload, seed)
    wl.setup()
    tracer = run.trace_pass(wl, list(range(count)))[1]
    return tracer


def test_tracer_restores_every_binding():
    import skewsieve.cli  # noqa: F401  (the CLI's imported names are rebound too)

    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    patched = _snapshot()
    tracer.uninstall()
    after = _snapshot()
    assert patched != before
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_rebinds_imported_names():
    import skewsieve.analysis as analysis
    import skewsieve.schur as schur

    tracer = Tracer()
    tracer.install()
    try:
        assert analysis.principal_specialization is schur.principal_specialization
        assert analysis.principal_specialization.__name__ == "wrapper"
    finally:
        tracer.uninstall()
    assert analysis.principal_specialization.__name__ == "principal_specialization"


def test_traced_counts_repeat_exactly():
    det = [_traced("det-rows", 6) for _ in range(2)]
    assert det[0].coeff_products == det[1].coeff_products > 0
    walk = [_traced("strip-walk", 8) for _ in range(2)]
    assert walk[0].count("abacus.moves") == walk[1].count("abacus.moves") > 0
    cold = [_traced("cold-tables", 3) for _ in range(2)]
    assert len(cold[0].binomial_args) == len(cold[1].binomial_args) > 0
    assert cold[0].coeff_products == cold[1].coeff_products


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        import skewsieve as ss

        with tracer.operation(0):
            ss.analyze(ss.SkewShape.parse("6,6,4,2/4,2"), 3, 2)
    finally:
        tracer.uninstall()
    own = tracer.self_ms()
    total = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start)) if tracer.parent[i] < 0)
    assert sum(own.values()) == pytest.approx(total * 1e3, rel=1e-6)
    assert tracer.count("analysis.analyze") == 1
    assert tracer.count("qpoly.mul") > 0


def _records(workload, count):
    wl = run.Workload(workload, 4)
    wl.setup()
    records = [wl.run_op(idx, None) for idx in range(count)]
    return wl, records


def test_right_answers_pass_and_wrong_ones_fail():
    wl, records = _records("det-rows", 12)
    assert run.check_records(wl, records)[0] == 0
    idx, lat, wall, out, _ = next(r for r in records if wl.ops[r[0]][0] == "analyze" and r[3]["a"])
    wrong = dict(out, a={d: a + 1 for d, a in out["a"].items()})
    assert run.check_records(wl, [(idx, lat, wall, wrong, None)])[0] == 1
    assert run.check_records(wl, [(idx, lat, wall, None, "ValueError()")])[0] == 1
    idx, lat, wall, out, _ = next(r for r in records if wl.ops[r[0]][0] == "count_ssyt")
    assert run.check_records(wl, [(idx, lat, wall, out + 1, None)])[0] == 1


def test_wrong_strip_counts_fail():
    wl, records = _records("strip-walk", 26)
    assert run.check_records(wl, records)[0] == 0
    idx, lat, wall, out, _ = next(r for r in records if wl.ops[r[0]][0] == "skew_char_rect")
    assert run.check_records(wl, [(idx, lat, wall, [out[0] * 2, out[1] * 2, out[2]], None)])[0] == 1


def test_wrong_cli_output_or_exit_code_fails():
    op = ("cli", "core", "--shape", "9,9,6,6,6,4,1", "--order", "3", "--json")
    want = ops.expected_cli(op[1:])
    assert ops.check(op, {"code": 0, "stdout": want}) is None
    assert ops.check(op, {"code": 1, "stdout": want}) is not None
    assert ops.check(op, {"code": 0, "stdout": want.replace("}", " }")}) is not None


def _last_json(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runs_report_exactly_the_declared_metrics(capsys):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    plain = _last_json(capsys, ["--workload", "strip-walk", "--seed", "2", "--seconds", "0.1", "--trace", "0"])
    assert plain["correct"] and plain["attempted"] >= inputs.MIN_OPS
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    traced = _last_json(capsys, ["--workload", "strip-walk", "--seed", "2", "--trace", "1"])
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)


def test_independent_routes_agree_with_known_values():
    # README quick start: 27,27,18,9/18,9 with 4 variables mod 9 has 54665112 * 9 - 9 + 1 fillings
    assert ops.det_count([27, 27, 18, 9], [18, 9], 4) == 1 - 3 * 3 + 54665112 * 9
    assert ops.syt_count([3, 2], [1]) == 5
    import skewsieve as ss

    for parts, d in (([9, 9, 6, 6, 6, 4, 1], 3), ([5, 3, 3, 1], 2), ([7, 7, 2], 4)):
        assert ops.core_of(parts, d) == list(ss.core(ss.Partition(parts), d).parts)
    assert ops.cycle_sign((2, 1, 4, 7, 3, 5, 6)) == -1
