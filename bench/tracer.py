"""Spans and counts for the library's layers, recorded from the outside.

``Tracer.install`` rebinds the public functions of each layer module (and
every other module's imported name for them, such as ``analysis``'s own
``principal_specialization``) to timing wrappers, wraps ``QPoly.__mul__``,
``QPoly.__init__``, the ``parse`` class methods and the bead-move generator
``abacus._legal_moves``.  ``uninstall`` puts every original back.

A span is (name, start, end, parent span, operation id), kept in compact
arrays in memory.  A layer's self time is the sum of its spans' durations
minus the time their child spans cover.  ``QPoly.__init__`` is counted but
gets no span: a span per construction would double the trace, and the
construction time stays in the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("shapes", "qpoly", "abacus", "schur", "characters", "analysis", "cli")
ROWS_OF = ("schur.principal_specialization", "schur.count_ssyt", "schur.ssyt_generating_function")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("I")
        self.stack = [-1]
        self.current_op = 0
        self.calls: list[int] = []
        self.coeff_products = 0
        self.construct_calls = 0
        self.max_poly_len = 0
        self.max_rows = 0
        self.binomial_args: set = set()
        self.cache_hits = 0
        self.cache_misses = 0
        self._patches: list = []
        self._lru = None

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        calls = self.calls
        opened, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                idx = opened(nid)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    close(idx)
                while True:
                    idx = opened(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item
            return gen_wrapper
        hook = self._hook(name)

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if hook is not None:
                hook(args)
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _hook(self, name: str):
        if name in ROWS_OF:
            def rows(args):
                if args[0].outer.length > self.max_rows:
                    self.max_rows = args[0].outer.length
            return rows
        if name == "qpoly.gaussian_binomial":
            return lambda args: self.binomial_args.add(args)
        if name == "qpoly.mul":
            def products(args):
                a, b = args
                self.coeff_products += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
            return products
        return None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"skewsieve.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        self._lru = mods["qpoly"].gaussian_binomial
        info = self._lru.cache_info()
        self._lru_base = (info.hits, info.misses)
        moves = mods["abacus"]._legal_moves
        wrappers[id(moves)] = (moves, self._wrap("abacus.moves", moves))
        for modname, mod in list(sys.modules.items()):
            if modname != "skewsieve" and not modname.startswith("skewsieve."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        poly = mods["qpoly"].QPoly
        self._patch(poly, "__mul__", self._wrap("qpoly.mul", poly.__dict__["__mul__"]))
        init = poly.__dict__["__init__"]

        def counted_init(obj, coeffs=()):
            init(obj, coeffs)
            self.construct_calls += 1
            if len(obj.coeffs) > self.max_poly_len:
                self.max_poly_len = len(obj.coeffs)
        self._patch(poly, "__init__", counted_init)
        shapes = mods["shapes"]
        for cls in (shapes.Partition, shapes.SkewShape, shapes.Composition):
            self._patch(cls, "parse", classmethod(self._wrap("shapes.parse", cls.__dict__["parse"].__func__)))

    def uninstall(self) -> None:
        if self._lru is not None:
            info = self._lru.cache_info()
            self.cache_hits += info.hits - self._lru_base[0]
            self.cache_misses += info.misses - self._lru_base[1]
            self._lru = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span ``bench.op`` around one operation."""
        self.current_op = op_id
        idx = self._open(self._nid("bench.op"))
        try:
            yield
        finally:
            self._close(idx)

    # --- results ----------------------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "spans": [list(self.name), list(self.start), list(self.end), list(self.parent), list(self.op)],
            "coeff_products": self.coeff_products,
            "construct_calls": self.construct_calls,
            "max_poly_len": self.max_poly_len,
            "max_rows": self.max_rows,
            "binomial_args": sorted(self.binomial_args),
            "cache": [self.cache_hits, self.cache_misses],
        }

    def absorb(self, data: dict, op_id: int) -> None:
        """Add a child process's export, recorded as operation ``op_id``."""
        ids = [self._nid(n) for n in data["names"]]
        for nid, c in zip(ids, data["calls"]):
            self.calls[nid] += c
        base = len(self.start)
        names, starts, ends, parents, _ = data["spans"]
        self.name.extend(ids[n] for n in names)
        self.start.extend(starts)
        self.end.extend(ends)
        self.parent.extend(p + base if p >= 0 else -1 for p in parents)
        self.op.extend(op_id for _ in names)
        self.coeff_products += data["coeff_products"]
        self.construct_calls += data["construct_calls"]
        self.max_poly_len = max(self.max_poly_len, data["max_poly_len"])
        self.max_rows = max(self.max_rows, data["max_rows"])
        # each child starts with empty tables: its distinct arguments add up
        self.binomial_args.update((op_id, tuple(a)) for a in data["binomial_args"])
        self.cache_hits += data["cache"][0]
        self.cache_misses += data["cache"][1]

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        n = len(self.start)
        covered = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        names = self.name
        for i in range(n):
            totals[names[i]] += ends[i] - starts[i] - covered[i]
        return {name: 1e3 * totals[i] for i, name in enumerate(self.names)}

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path) -> None:
        """Spans as gzip'd CSV: name,start_us,end_us,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            names = self.names
            t0 = self.start[0] if len(self.start) else 0.0
            for nid, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write(f"{names[nid]},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{p},{o}\n")
