"""The benchmark in ``bench/`` imports, calls and patches library names.

Run the shortest operation of each kind of every workload once, under the
benchmark's tracer, through the same prepare, call, canonical form and
check steps as ``bench/run.py``.  A name the benchmark needs that has gone
from the library then fails here.  Nothing in ``bench/`` is changed.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer  # noqa: E402


def shortest_of_each_kind(workload: str) -> list[tuple]:
    """As ``bench/run.py`` picks its warm-up operations."""
    shortest: dict = {}
    for block in inputs.generate(workload, 1):
        for op in block:
            kind = op[:2] if op[0] == "cli" else op[0]
            if kind not in shortest or len(inputs.op_key(op)) < len(inputs.op_key(shortest[kind])):
                shortest[kind] = op
    return list(shortest.values())


def test_benchmark_operations_run_and_check_under_the_tracer():
    tracer = Tracer()
    tracer.install()
    try:
        ran = 0
        for workload in inputs.WORKLOADS:
            for op in shortest_of_each_kind(workload):
                with tracer.operation(ran):
                    out = ops.canonical(op, ops.prepare(op)())
                assert ops.check(op, out) is None, (workload, op)
                ran += 1
    finally:
        tracer.uninstall()
    assert ran >= len(inputs.WORKLOADS)
    assert tracer.count("shapes.parse") > 0
