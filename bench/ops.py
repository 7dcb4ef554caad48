"""Running one benchmark operation, and checking what it returned.

``prepare`` turns a generated operation into a zero-argument call on the
library (parsing happens here, during set-up, not in the timed call; a CLI
operation parses its own arguments, as ``python -m skewsieve`` does).
``canonical`` turns the raw return value into plain JSON data; ``check``
compares that data with independent routes: the tableau enumeration, a
fraction-free integer determinant, the quotient-theorem product, the
second root-of-unity route and the library's documented CLI bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import comb

import inputs

# Enumerate fillings only for shapes this small, with at most this many
# fillings and no column longer than k (the oracle walks every filling).
ENUM_MAX_CELLS = 24
ENUM_LIMIT = 3000
# Second route for root values only up to this many rows (2^l determinant).
ROOT_ROUTE_MAX_ROWS = 9


def digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def prepare(op: tuple):
    """A zero-argument callable running ``op`` on the library."""
    import skewsieve as ss

    kind = op[0]
    if kind == "cli":
        return cli_call(op[1:])
    shape = ss.SkewShape.parse(op[1]) if kind != "core" else ss.Partition.parse(op[1])
    if kind == "analyze":
        return lambda: ss.analyze(shape, op[2], op[3])
    if kind == "count_ssyt":
        return lambda: ss.count_ssyt(shape, op[2])
    if kind == "specialize_full":
        return lambda: ss.principal_specialization(shape, op[2])
    if kind == "skew_char_rect":
        return lambda: ss.skew_char_rect(shape, op[2])
    if kind == "skew_char":
        nu = ss.Composition.parse(op[2])
        return lambda: ss.skew_char(shape, nu)
    if kind == "perm":
        def call():
            pi = ss.perm(shape, op[2])
            return pi, ss.permutation_sign(pi)
        return call
    if kind == "skew_quotient":
        return lambda: ss.skew_quotient(shape, op[2])
    if kind == "core":
        return lambda: ss.core(shape, op[2])
    if kind == "eval_at_root":
        return lambda: ss.eval_at_root(shape, op[2], op[3])
    if kind == "kostka_foulkes_rect_at_root":
        return lambda: ss.kostka_foulkes_rect_at_root(shape, op[2], op[3])
    raise ValueError(f"unknown operation {kind!r}")


def cli_call(argv: tuple):
    """``python -m skewsieve ARGV`` in this process: the exit code and the
    captured stdout.  ``cli.run`` is looked up at each call, so a traced run
    sees its wrapper."""
    from skewsieve import cli

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:  # argparse errors exit
                code = exc.code if isinstance(exc.code, int) else 1
        return {"code": code, "stdout": out.getvalue()}

    return call


def canonical(op: tuple, raw):
    kind = op[0]
    if kind == "analyze":
        dec = raw.decomposition
        a = None if dec.coefficients is None else {str(d): dec.coefficients[d] for d in sorted(dec.coefficients)}
        return {"verdict": dec.verdict.value, "a": a, "guaranteed": raw.csp_guaranteed,
                "border_strip": raw.border_strip}
    if kind == "specialize_full":
        return list(raw.coeffs)
    if kind == "skew_char_rect":
        return [raw.value, raw.bst_count, raw.epsilon]
    if kind == "perm":
        return [list(raw[0]), raw[1]]
    if kind == "skew_quotient":
        return None if not raw.exists else [str(c) for c in raw.components]
    if kind == "core":
        return str(raw)
    return raw  # plain integers


# --- independent routes ---------------------------------------------------


def jt_entries(outer, inner):
    l = len(outer)
    inner = list(inner) + [0] * (l - len(inner))
    return [[outer[i] - inner[j] + j - i for j in range(l)] for i in range(l)]


def det_count(outer, inner, k: int) -> int:
    """Fillings with entries <= k: Gaussian elimination in exact rationals
    on the Jacobi-Trudi matrix at q = 1 (O(l^3), no column subsets)."""
    a = [[Fraction(comb(e + k - 1, k - 1)) if e >= 0 else Fraction(0) for e in row]
         for row in jt_entries(outer, inner)]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return int(det)


def syt_count(outer, inner) -> int:
    """Standard fillings of a skew shape, by removing one corner at a time."""

    @lru_cache(maxsize=None)
    def count(nu: tuple) -> int:
        if list(nu) == padded:
            return 1
        total = 0
        for i, p in enumerate(nu):
            below = nu[i + 1] if i + 1 < len(nu) else 0
            if p > padded[i] and p > below:
                total += count(nu[:i] + (p - 1,) + nu[i + 1:])
        return total

    padded = list(inner) + [0] * (len(outer) - len(inner))
    return count(tuple(outer))


def core_of(parts, d: int) -> list[int]:
    r = max(len(parts), 1)
    runners = [0] * d
    for p in inputs.beta_set(parts, r):
        runners[p % d] += 1
    return inputs.from_beta([t + d * j for t in range(d) for j in range(runners[t])])


def multinomial(sizes) -> int:
    total, out = 0, 1
    for s in sizes:
        total += s
        out *= comb(total, s)
    return out


def cycle_sign(pi) -> int:
    seen, sign = set(), 1
    for start in range(1, len(pi) + 1):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = pi[i - 1]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def root_value_by_decomposition(shape_text: str, n_vars: int, d: int) -> int:
    """The second route of the root evaluation: specialize mod q^d - 1 and
    read the value at a primitive d-th root off the divisor basis."""
    import skewsieve as ss

    poly = ss.principal_specialization(ss.SkewShape.parse(shape_text), n_vars, mod=d)
    return ss.eval_at_primitive_root(poly, d, 1)


def enumerable(outer, inner, k: int, count: int) -> bool:
    padded = list(inner) + [0] * (len(outer) - len(inner))
    longest = max((sum(1 for a, b in zip(outer, padded) if b < c <= a) for c in range(1, outer[0] + 1)), default=0)
    return count <= ENUM_LIMIT and sum(outer) - sum(inner) <= ENUM_MAX_CELLS and longest <= k


def enum_poly(shape_text: str, k: int) -> list[int]:
    import skewsieve as ss

    return list(ss.ssyt_generating_function(ss.SkewShape.parse(shape_text), k).coeffs)


def expected_cli(argv: tuple) -> str:
    """The stdout the README's JSON schemas (and the verify listing) promise,
    built from library calls rather than from the CLI module."""
    import skewsieve as ss
    from skewsieve.checks import builtin_checks

    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd == "verify":
        results = builtin_checks()
        lines = [f"{'ok' if r.passed else 'FAIL':4s} {r.name}" for r in results]
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        return "\n".join(lines) + "\n"
    text = opts["--shape"]
    if cmd == "core":
        payload = {"core": str(ss.core(ss.Partition.parse(text), int(opts["--order"])))}
        return json.dumps(payload) + "\n"
    shape = ss.SkewShape.parse(text)
    if cmd == "analyze":
        k, m = int(opts["--vars"]), int(opts["--mod"])
        rep = ss.analyze(shape, k, m)
        dec = rep.decomposition
        a = None if dec.coefficients is None else {str(d): dec.coefficients[d] for d in sorted(dec.coefficients)}
        payload = {"shape": str(shape), "vars": k, "m": m, "verdict": dec.verdict.value, "a": a,
                   "row_diffs_divisible": rep.row_diffs_divisible, "vars_divisible": rep.vars_divisible,
                   "border_strip": rep.border_strip, "csp_guaranteed": rep.csp_guaranteed,
                   "orbit_counts": a if dec.verdict is ss.Verdict.CSP else None}
    elif cmd == "specialize":
        k, m = int(opts["--vars"]), int(opts["--mod"])
        outer, inner = inputs.split_shape(text)
        if enumerable(outer, inner, k, det_count(outer, inner, k)):
            folded = [0] * m
            for e, c in enumerate(enum_poly(text, k)):
                folded[e % m] += c
        else:
            folded = list(ss.principal_specialization(shape, k, mod=m).coeffs)
        payload = {"shape": str(shape), "vars": k, "mod": m,
                   "poly": {str(e): c for e, c in enumerate(folded) if c}}
    elif cmd == "quotient":
        sq = ss.skew_quotient(shape, int(opts["--order"]))
        payload = {"exists": sq.exists, "components": [str(c) for c in sq.components] if sq.exists else None}
    elif cmd == "perm":
        pi = ss.perm(shape, int(opts["--order"]))
        payload = {"perm": list(pi), "one_line": ss.one_line_string(pi), "sign": ss.permutation_sign(pi)}
    elif cmd == "char":
        v = ss.skew_char_rect(shape, int(opts["--type"]))
        payload = {"value": v.value, "bst_count": v.bst_count, "epsilon": v.epsilon}
    elif cmd == "eval-root":
        payload = {"value": ss.eval_at_root(shape, int(opts["--vars"]), int(opts["--order"]))}
    elif cmd == "bst":
        d = int(opts["--order"])
        v = ss.skew_char_rect(shape, d)
        shown = [t for t, _ in zip(ss.enumerate_bst(shape, d), range(int(opts["--show"])))]
        payload = {"count": v.bst_count, "epsilon": v.epsilon, "value": v.value,
                   "tableaux": [{"heights": list(t.heights), "total_height": t.total_height} for t in shown]}
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return json.dumps(payload) + "\n"


# --- checks ---------------------------------------------------------------


def _check_poly_family(outer, inner, k: int, coeffs: list[int], count: int) -> str | None:
    if sum(coeffs) != count:
        return f"coefficients sum to {sum(coeffs)}, determinant count is {count}"
    n = sum(outer) - sum(inner)
    padded = coeffs + [0] * (n * (k - 1) + 1 - len(coeffs))
    if len(padded) != n * (k - 1) + 1 or padded != padded[::-1] or min(padded) < 0:
        return "not a nonnegative palindrome of degree |shape|(k-1)"
    return None


def check(op: tuple, out) -> str | None:
    """None when ``out`` is right for ``op``, else what is wrong."""
    kind = op[0]
    if kind == "cli":
        want = expected_cli(op[1:])
        if out["code"] != 0:
            return f"exit code {out['code']}"
        return None if out["stdout"] == want else f"stdout differs: {out['stdout'][:200]!r}"
    if kind == "core":
        want = inputs.fmt_partition(core_of(inputs.parse_parts(op[1]), op[2]))
        return None if out == want else f"core {out}, abacus gives {want}"
    outer, inner = inputs.split_shape(op[1])
    if kind in ("analyze", "count_ssyt", "specialize_full"):
        k = op[2]
        count = det_count(outer, inner, k)
        small = enumerable(outer, inner, k, count)
        if kind == "count_ssyt":
            if out != count:
                return f"count {out}, elimination gives {count}"
            if small and sum(enum_poly(op[1], k)) != count:
                return "enumeration disagrees"
            return None
        if kind == "specialize_full":
            if small and out != enum_poly(op[1], k):
                return "enumeration disagrees"
            return _check_poly_family(outer, inner, k, out, count)
        m = op[3]
        if out["guaranteed"] and out["verdict"] != "csp":
            return "guaranteed case is not csp"
        if out["a"] is not None:
            folded = sum(int(d) * a for d, a in out["a"].items())
            if folded != count:
                return f"divisor coordinates give {folded} fillings, elimination gives {count}"
        if small:
            import skewsieve as ss

            dec = ss.csp_decompose(ss.QPoly(enum_poly(op[1], k)), m)
            want = None if dec.coefficients is None else {str(d): dec.coefficients[d] for d in sorted(dec.coefficients)}
            if want != out["a"] or dec.verdict.value != out["verdict"]:
                return "enumeration decomposes differently"
        return None
    r = len(outer)
    if kind in ("skew_char_rect", "skew_quotient", "perm"):
        d = op[2]
        exists = _quotient_exists(outer, inner, d)
        comps = list(zip(inputs.runner_parts(outer, d, r), inputs.runner_parts(inner, d, r)))
        if kind == "skew_quotient":
            want = [inputs.fmt_shape(a, b) for a, b in comps] if exists else None
            return None if out == want else f"components {out}, abacus gives {want}"
        if kind == "perm":
            pi, sign = out
            if sorted(pi) != list(range(1, r + 1)):
                return "not a permutation"
            padded = inner + [0] * (r - len(inner))
            if any((outer[i] - i - padded[pi[i] - 1] + pi[i] - 1) % d for i in range(r)):
                return "permutation leaves a residue class"
            return None if sign == cycle_sign(pi) else "sign differs from the cycle parity"
        value, count, eps = out
        if not exists:
            return None if out == [0, 0, 0] else "nonzero value without a quotient"
        want = multinomial([sum(a) - sum(b) for a, b in comps])
        for a, b in comps:
            want *= syt_count(a, b)
        if count != want:
            return f"{count} tableaux, quotient theorem gives {want}"
        import skewsieve as ss

        sign = ss.permutation_sign(ss.perm(ss.SkewShape.parse(op[1]), d))
        return None if value == eps * count and eps == sign else "sign differs from the matching permutation"
    if kind == "skew_char":
        import skewsieve as ss

        parts = [int(p) for p in op[2].split(",")]
        turned = ss.skew_char(ss.SkewShape.parse(op[1]), parts[::-1])
        return None if out == turned else f"value {out}, reversed type gives {turned}"
    if kind == "eval_at_root":
        n_vars, d = op[2], op[3]
        if not _quotient_exists(outer, inner, d) and out != 0:
            return "nonzero value without a quotient"
        if r <= ROOT_ROUTE_MAX_ROWS:
            want = root_value_by_decomposition(op[1], n_vars, d)
            if out != want:
                return f"value {out}, decomposition route gives {want}"
        return None
    if kind == "kostka_foulkes_rect_at_root":
        n_vars, m = op[2], op[3]
        if out not in (-1, 0, 1):
            return f"value {out} is not -1, 0 or 1"
        if r <= ROOT_ROUTE_MAX_ROWS:
            sign = -1 if ((n_vars - 1) * m) % 2 else 1
            want = sign * root_value_by_decomposition(op[1], n_vars, n_vars)
            if out != want:
                return f"value {out}, decomposition route gives {want}"
        return None
    return f"no check for {kind!r}"


def _quotient_exists(outer, inner, d: int) -> bool:
    """Equal bead counts on every runner and nested components."""
    r = len(outer)
    beads_out, beads_in = [0] * d, [0] * d
    for p in inputs.beta_set(outer, r):
        beads_out[p % d] += 1
    for p in inputs.beta_set(inner, r):
        beads_in[p % d] += 1
    if beads_out != beads_in:
        return False
    return all(
        len(b) <= len(a) and all(x >= y for x, y in zip(a, b))
        for a, b in zip(inputs.runner_parts(outer, d, r), inputs.runner_parts(inner, d, r))
    )
