"""End-to-end and per-layer benchmark for skewsieve.

    python3 bench/run.py --workload det-rows --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the library is imported from ``src/``
beside this directory, never from an installed copy.  Each workload is a
closed loop with one client in one process (cold-tables forks one child
per operation, never more than one at a time; cli-mix runs the CLI's
``run`` in this process, its output captured).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import ops  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS = 15
CLI_BASELINE_RUNS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def rss_mb(ru) -> float:
    return ru.ru_maxrss / 1024.0


class Workload:
    """Inputs, set-up and the timed loop of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.forks = name == "cold-tables"
        self.peak_mb = 0.0

    def setup(self) -> float:
        """Import the library, generate the inputs, warm up; seconds taken."""
        t0 = time.perf_counter()
        import skewsieve
        import skewsieve.cli  # noqa: F401  (cli-mix calls it; import cost belongs to set-up)

        if Path(skewsieve.__file__).resolve().parent != SRC / "skewsieve":
            raise RuntimeError(f"imported skewsieve from {skewsieve.__file__}, not from {SRC}")
        blocks = inputs.generate(self.name, self.seed)
        self.ops = [op for block in blocks for op in block]
        starts = [0]
        for block in blocks:
            starts.append(starts[-1] + len(block))
        self.blocks = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        self.calls = [ops.prepare(op) for op in self.ops]
        if self.name == "det-rows":
            self._warm_tables()
        # each kind of operation once, on its shortest input, so that the
        # cost does not depend on which operations a seed shuffles first
        warm = {}
        for idx, op in enumerate(self.ops):
            kind = op[:2] if op[0] == "cli" else op[0]
            if kind not in warm or len(inputs.op_key(op)) < len(inputs.op_key(self.ops[warm[kind]])):
                warm[kind] = idx
        for idx in warm.values():
            self.run_op(idx, None)
        return time.perf_counter() - t0

    def _warm_tables(self) -> None:
        """Fill the q-binomial tables every determinant of the pool reads,
        through one-row specializations (a 1x1 determinant is its entry)."""
        import skewsieve as ss

        seen = set()
        for op in self.ops:
            outer, inner = inputs.split_shape(op[1])
            k = op[2]
            m = op[3] if op[0] == "analyze" else None
            for row in ops.jt_entries(outer, inner):
                for e in row:
                    if e > 0 and (e, k, m) not in seen:
                        seen.add((e, k, m))
                        if m is not None:
                            ss.principal_specialization(ss.SkewShape(ss.Partition([e])), k, mod=m)

    # --- one operation ----------------------------------------------------

    def run_op(self, idx: int, tracer) -> tuple:
        """Run operation ``idx`` once.  The record is (index, latency s,
        wall time of the whole closed-loop step s, output, error); the
        step includes the fork around the operation."""
        t0 = time.perf_counter()
        if self.forks:
            lat, out, err, ru = self._run_forked(idx, tracer)
        else:
            lat, out, err = self._run_inline(idx, tracer)
        wall = time.perf_counter() - t0
        if self.forks:
            self.peak_mb = max(self.peak_mb, rss_mb(ru))
        return idx, lat, wall, out, err

    def measure(self, seconds: float, between_passes=lambda: None) -> list[tuple]:
        """The timed loop: passes over every operation of the pool, in
        order, until ``seconds`` are up (at least one pass).  Each
        operation keeps its best time over the passes.  The machine's
        speed varies by up to 2x between 50 ms slices and drifts for tens
        of seconds at a time; the best of many runs spread over the loop is
        far steadier than any single one or their median (as in timeit).
        ``between_passes`` runs after each pass, outside every timing."""
        self.peak_mb = 0.0
        records = []
        t0 = time.perf_counter()
        while not records or time.perf_counter() - t0 < seconds:
            records.extend(self.run_op(idx, None) for idx in range(len(self.ops)))
            between_passes()
        if not self.forks:
            self.peak_mb = rss_mb(resource.getrusage(resource.RUSAGE_SELF))
        return records

    def _run_inline(self, idx: int, tracer):
        call = self.calls[idx]
        err = raw = None
        with tracer.operation(idx) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                raw = call()
            except Exception as exc:  # counted as a failed operation
                err = repr(exc)
            lat = time.perf_counter() - t0
        out = None if err else ops.canonical(self.ops[idx], raw)
        return lat, out, err

    def _run_forked(self, idx: int, tracer):
        """The operation in a child forked from this process, so it starts
        with the tables this process has: none (nothing here computes)."""
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            code = 0
            try:
                os.close(r)
                child_tracer = None
                if tracer is not None:
                    from tracer import Tracer

                    child_tracer = Tracer()
                    child_tracer.install()
                lat, out, err = self._run_inline(idx, child_tracer)
                msg = {"lat": lat, "out": out, "err": err}
                if child_tracer is not None:
                    child_tracer.uninstall()
                    msg["trace"] = child_tracer.export()
                with os.fdopen(w, "w") as fh:
                    json.dump(msg, fh)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r) as fh:
            data = fh.read()
        _, status, ru = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not data:
            return 0.0, None, f"child exited with status {status}", ru
        msg = json.loads(data)
        if tracer is not None:
            tracer.absorb(msg["trace"], idx)
        return msg["lat"], msg["out"], msg["err"], ru


# --- checks ---------------------------------------------------------------


def load_golden(workload: str) -> dict:
    path = BENCH / "golden" / f"{workload}.json"
    with open(path) as fh:
        data = json.load(fh)
    return data["outputs"] if data["seed"] == DEFAULT_SEED else {}


def check_records(wl: Workload, records) -> tuple[int, list[str]]:
    """Failures among ``records`` (exceptions, wrong answers, wrong exit
    codes) and a few messages describing them."""
    golden = load_golden(wl.name) if wl.seed == DEFAULT_SEED else {}
    verdicts: dict[int, str | None] = {}
    first_digest: dict[int, str] = {}
    failed, messages = 0, []
    for idx, _, _, out, err in records:
        op = wl.ops[idx]
        problem = err
        if problem is None:
            d = ops.digest(out)
            if idx not in verdicts:
                first_digest[idx] = d
                key = inputs.op_key(op)
                if golden and golden.get(key) != d:
                    verdicts[idx] = "differs from the output recorded for this seed"
                else:
                    verdicts[idx] = ops.check(op, out)
            problem = verdicts[idx] if d == first_digest[idx] else "output changed between repeats"
        if problem is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{inputs.op_key(op)}: {problem}")
    return failed, messages


# --- reporting ------------------------------------------------------------


def environment(wl: Workload, samples: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "source_sha256": digest.hexdigest(),
        "workload": wl.name,
        "seed": wl.seed,
        "samples": samples,
        "load": "one process and at most one child at a time (set-ups between passes, cold-tables forks)",
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (used for the repeated set-ups)."""
    sys.path.insert(0, str(SRC))
    return Workload(workload, seed).setup()


def fresh_setup(wl: Workload) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"print(run.probe_setup({wl.name!r}, {wl.seed}))")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    return float(res.stdout.strip().splitlines()[-1])


def median_subprocess_ms(code: str) -> float:
    times = []
    for _ in range(CLI_BASELINE_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, int, int, list[str], int]:
    # the run's own set-up, then SETUP_RUNS - 1 in fresh interpreters,
    # spread over the timed loop (between its passes) so that one slow
    # phase of the machine does not hold all of them
    setups = [wl.setup()]
    t0 = time.perf_counter()

    def between_passes():
        if len(setups) < SETUP_RUNS and time.perf_counter() - t0 >= len(setups) * seconds / SETUP_RUNS:
            setups.append(fresh_setup(wl))

    records = wl.measure(seconds, between_passes)
    setups.extend(fresh_setup(wl) for _ in range(SETUP_RUNS - len(setups)))
    failed, messages = check_records(wl, records)
    best_lat, best_wall = {}, {}
    for idx, lat, wall, _, _ in records:
        best_lat[idx] = min(lat, best_lat.get(idx, lat))
        best_wall[idx] = min(wall, best_wall.get(idx, wall))
    n, attempted = len(wl.ops), len(records)
    lat_ms = [best_lat[idx] * 1e3 for idx in range(n)]
    repeats = len(records) // n
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(n / sum(best_wall.values()), "1/s"),
        "latency_p50_ms": metric(percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": metric(percentile(lat_ms, 90), "ms"),
        "success_rate": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(wl.peak_mb, "MB"),
    }
    print(f"setup_s         {metrics['setup_s']['value']:.4f} s  (median of {len(setups)} set-ups)")
    print(f"ops_per_s       {metrics['ops_per_s']['value']:.3f} 1/s  ({n} operations, best of {repeats} steps each)")
    print(f"latency_p50_ms  {metrics['latency_p50_ms']['value']:.3f} ms  (n={n}, best of {repeats} each)")
    print(f"latency_p90_ms  {metrics['latency_p90_ms']['value']:.3f} ms  (n={n}, {n - -(-n * 90 // 100)} beyond)")
    print(f"error_rate      {failed / attempted:.4f}  ({failed}/{attempted} failed)")
    print(f"success_rate    {metrics['success_rate']['value']:.4f} ratio")
    print(f"peak_rss_mb     {metrics['peak_rss_mb']['value']:.2f} MB")
    return metrics, attempted, failed, messages, n


def trace_pass(wl: Workload, indices: list[int]) -> tuple[list, "Tracer", float]:
    """Run the operations ``indices`` once, traced; returns the records,
    the tracer and the seconds taken.  In-process workloads run under this
    process's tracer; forked children install their own and send it back.
    The inputs are parsed again under the tracer first, as set-up parses
    them (CLI operations parse their own arguments when they run)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(len(wl.ops)):
            for idx in indices:
                ops.prepare(wl.ops[idx])
        if not wl.forks:
            t0 = time.perf_counter()
            records = [wl.run_op(idx, tracer) for idx in indices]
            elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if wl.forks:
        t0 = time.perf_counter()
        records = [wl.run_op(idx, tracer) for idx in indices]
        elapsed = time.perf_counter() - t0
    return records, tracer, elapsed


def traced(wl: Workload) -> tuple[dict, int, int, list[str], int]:
    wl.setup()
    chosen = [idx for block in wl.blocks[: inputs.TRACE_BLOCKS[wl.name]] for idx in block]
    t0 = time.perf_counter()
    plain = [wl.run_op(idx, None) for idx in chosen]
    plain_s = time.perf_counter() - t0
    records, tracer, traced_s = trace_pass(wl, chosen)
    interpreter = median_subprocess_ms("pass")
    imported = median_subprocess_ms("import skewsieve.cli")
    failed, messages = check_records(wl, plain + records)
    own = tracer.self_ms()
    calls = tracer.count
    hits, misses = tracer.cache_hits, tracer.cache_misses
    values = {
        "schur.principal_specialization.self_ms": own.get("schur.principal_specialization", 0.0),
        "schur.count_ssyt.self_ms": own.get("schur.count_ssyt", 0.0),
        "schur.det_by_column_subsets.self_ms": own.get("schur.det_by_column_subsets", 0.0),
        "schur.max_rows": (tracer.max_rows, "count"),
        "qpoly.mul.calls": (calls("qpoly.mul"), "count"),
        "qpoly.mul.coeff_products": (tracer.coeff_products, "count"),
        "qpoly.mul.self_ms": own.get("qpoly.mul", 0.0),
        "qpoly.gaussian_binomial.calls": (calls("qpoly.gaussian_binomial"), "count"),
        "qpoly.gaussian_binomial.unique": (len(tracer.binomial_args), "count"),
        "qpoly.gaussian_binomial.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "qpoly.gaussian_binomial.self_ms": own.get("qpoly.gaussian_binomial", 0.0),
        "qpoly.reduced_gaussian_binomial.calls": (calls("qpoly.reduced_gaussian_binomial"), "count"),
        "qpoly.reduced_gaussian_binomial.self_ms": own.get("qpoly.reduced_gaussian_binomial", 0.0),
        "qpoly.max_poly_len": (tracer.max_poly_len, "count"),
        "qpoly.construct.calls": (tracer.construct_calls, "count"),
        "qpoly.reduce_mod.calls": (calls("qpoly.reduce_mod"), "count"),
        "qpoly.reduce_mod.self_ms": own.get("qpoly.reduce_mod", 0.0),
        "qpoly.csp_decompose.calls": (calls("qpoly.csp_decompose"), "count"),
        "qpoly.csp_decompose.self_ms": own.get("qpoly.csp_decompose", 0.0),
        "shapes.is_border_strip.self_ms": own.get("shapes.is_border_strip", 0.0),
        "analysis.analyze.self_ms": own.get("analysis.analyze", 0.0),
        "abacus.moves.calls": (calls("abacus.moves"), "count"),
        "abacus.moves.self_ms": own.get("abacus.moves", 0.0),
        "abacus.skew_quotient.self_ms": own.get("abacus.skew_quotient", 0.0),
        "abacus.core.self_ms": own.get("abacus.core", 0.0),
        "characters.skew_char_rect.self_ms": own.get("characters.skew_char_rect", 0.0),
        "characters.skew_char.self_ms": own.get("characters.skew_char", 0.0),
        "characters.perm.self_ms": own.get("characters.perm", 0.0),
        "characters.eval_at_root.self_ms": own.get("characters.eval_at_root", 0.0),
        "characters.enumerate_bst.self_ms": own.get("characters.enumerate_bst", 0.0),
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.run.self_ms": own.get("cli.run", 0.0),
        "shapes.parse.calls": (calls("shapes.parse"), "count"),
        "shapes.parse.self_ms": own.get("shapes.parse", 0.0),
        "bench.trace_overhead_ratio": ((len(records) / traced_s) / (len(plain) / plain_s), "ratio"),
    }
    metrics = {}
    for name, v in values.items():
        value, unit = v if isinstance(v, tuple) else (v, "ms")
        metrics[name] = metric(value, unit)
        print(f"{name:42s} {value} {unit}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{wl.name}-seed{wl.seed}.csv.gz"
    tracer.write(spans)
    print(f"# {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
    n = len(plain) + len(records)
    return metrics, n, failed, messages, len(records)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewsieve" / "__init__.py").is_file():
        print(f"error: no skewsieve sources in {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = Workload(args.workload, args.seed)
    print(f"# skewsieve benchmark: workload {wl.name}, seed {wl.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    metrics, attempted, failed, messages, samples = traced(wl) if args.trace else end_to_end(wl, args.seconds)
    print("env " + json.dumps(environment(wl, samples)))
    for msg in messages:
        print(f"FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
