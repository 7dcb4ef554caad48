"""Seeded input generation for the benchmark workloads.

Pure standard library: nothing here imports skewsieve, so the program only
ever receives the generated inputs.  Every workload is a list of blocks; a
block holds a fixed mix of operations (the same counts per stratum for every
seed) in a seeded order, so that seeds change the concrete shapes but not
the distribution of work.  A run takes whole blocks in order and never
more than the pool holds.

An operation is a tuple whose first entry names it; shapes travel as the
``OUTER/INNER`` text the CLI accepts.
"""

from __future__ import annotations

import random

WORKLOADS = ("det-rows", "cold-tables", "strip-walk", "cli-mix")

# A run's operations: the fewest whole blocks holding at least MIN_OPS
# operations, so that latency_p90_ms has at least 10 samples beyond it.
MIN_OPS = 100
POOL_BLOCKS = {"det-rows": 1, "cold-tables": 5, "strip-walk": 3, "cli-mix": 6}

# Blocks replayed by a traced run: fixed, so its counts repeat exactly.
TRACE_BLOCKS = {"det-rows": 1, "cold-tables": 1, "strip-walk": 2, "cli-mix": 1}


def op_key(op: tuple) -> str:
    return "|".join(str(x) for x in op)


def fmt_partition(parts) -> str:
    parts = [p for p in parts if p > 0]
    return ",".join(str(p) for p in parts) if parts else "0"


def fmt_shape(outer, inner) -> str:
    inner = [p for p in inner if p > 0]
    return fmt_partition(outer) + ("/" + fmt_partition(inner) if inner else "")


def parse_parts(text: str) -> list[int]:
    return [] if text in ("", "0") else [int(p) for p in text.split(",")]


def split_shape(text: str) -> tuple[list[int], list[int]]:
    outer, _, inner = text.partition("/")
    return parse_parts(outer), parse_parts(inner)


# --- abacus arithmetic, kept independent of the library -------------------


def beta_set(parts, r: int) -> list[int]:
    padded = list(parts) + [0] * (r - len(parts))
    return [padded[i] + r - 1 - i for i in range(r)]


def from_beta(beta) -> list[int]:
    b = sorted(beta, reverse=True)
    r = len(b)
    return [x - (r - 1 - i) for i, x in enumerate(b) if x - (r - 1 - i) > 0]


def runner_parts(parts, d: int, r: int) -> list[list[int]]:
    """Quotient components of a partition on the r-bead, d-runner abacus."""
    rows: list[list[int]] = [[] for _ in range(d)]
    for p in beta_set(parts, r):
        rows[p % d].append(p // d)
    return [from_beta(rs) for rs in rows]


def interval_size(outer, inner) -> int:
    """Number of partitions nu with inner <= nu <= outer (containment)."""
    n = len(outer)
    inner = list(inner) + [0] * (n - len(inner))
    if n == 0:
        return 1
    # ways[v] = fillings of the rows so far whose last row equals v
    ways = {v: 1 for v in range(inner[0], outer[0] + 1)}
    for i in range(1, n):
        nxt = {}
        for v in range(inner[i], outer[i] + 1):
            nxt[v] = sum(w for u, w in ways.items() if u >= v)
        ways = nxt
    return sum(ways.values())


def walk_states(outer, inner, d: int) -> int:
    """Bead configurations the strip walk from outer down to inner visits:
    the product over runners of the component intervals."""
    r = len(outer)
    total = 1
    for a, b in zip(runner_parts(outer, d, r), runner_parts(inner, d, r)):
        total *= interval_size(a, b)
    return total


# --- det-rows -------------------------------------------------------------


def _stretched_band(rng: random.Random, l: int, m: int, w: int) -> str:
    """A stretched staircase band with l rows: row i covers the columns
    (m(l-i), m(l-i+w) + e_i] with seeded 0 <= e_i < w, so no column holds
    more than w + 1 cells and the Jacobi-Trudi matrix is zero below its
    (w-1)-th subdiagonal.  The work of the column-subset determinant then
    depends on l and w, not on the seed."""
    outer = [m * (l - i + w) + rng.randrange(w) for i in range(1, l + 1)]
    inner = [m * (l - i) for i in range(1, l + 1)]
    return fmt_shape(outer, inner)


def det_rows(seed: int, blocks: int) -> list[list[tuple]]:
    rng = random.Random(f"det-rows:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for l in range(6, 12):
            for m in (2, 3, 4):
                for k in (3, 4, 5, 6):
                    # w + 1 <= k keeps every column fillable
                    w = 1 + (m + k) % min(3, k - 1)
                    block.append(("analyze", _stretched_band(rng, l, m, w), k, m))
            # 5 counts per l (30 of 102): the median then falls inside the
            # group of l = 7 determinants instead of on its upper edge
            for k in (3, 4, 5, 6, rng.choice((3, 4, 5, 6))):
                w = 1 + (l + k) % min(3, k - 1)
                block.append(("count_ssyt", _stretched_band(rng, l, rng.choice((2, 3, 4)), w), k))
        rng.shuffle(block)
        out.append(block)
    return out


# --- cold-tables ----------------------------------------------------------

FULL_DEGREE_CAP = 560


def _few_rows(rng: random.Random) -> tuple[list[int], list[int]]:
    """A base skew shape in the style of 3321/21: at most 4 rows, first
    outer row 3 (which fixes the largest q-binomial the tables need)."""
    l = rng.randint(2, 4)
    outer = [3] + sorted((rng.randint(1, 3) for _ in range(l - 1)), reverse=True)
    rows = rng.randint(1, l - 1)
    inner = sorted((rng.randint(1, outer[i]) for i in range(rows)), reverse=True)
    return outer, [min(p, outer[i]) for i, p in enumerate(inner)]


def cold_tables(seed: int, blocks: int) -> list[list[tuple]]:
    rng = random.Random(f"cold-tables:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for m in (10, 20, 30, 40, 50, 60):
            for k in (4, 6, 8):
                outer, inner = _few_rows(rng)
                shape = fmt_shape([m * p for p in outer], [m * p for p in inner])
                block.append(("analyze", shape, k, m))
        for m, k in ((10, 4), (10, 6), (10, 8), (20, 4), (20, 6), (20, 8)):
            while True:
                outer, inner = _few_rows(rng)
                size = m * (sum(outer) - sum(inner))
                if size * (k - 1) <= FULL_DEGREE_CAP:
                    break
            block.append(("specialize_full", fmt_shape([m * p for p in outer], [m * p for p in inner]), k))
        rng.shuffle(block)
        out.append(block)
    return out


# --- strip-walk -----------------------------------------------------------

# Walk work per character operation: bead configurations visited times
# beads (each visit scans every bead).  Narrow bands keep the cost of an
# operation close to its band's for every seed: about 3, 12 and 40 ms on
# the reference machine.  The top band is reachable for d = 4 at size 70.
WORK_SMALL = (1500, 1950)
WORK_MEDIUM = (6000, 7800)
WORK_LARGE = (20000, 26000)


def _strip_shape(rng: random.Random, d: int, band: tuple[int, int] | None = None,
                 max_rows: int | None = None) -> tuple[list[int], list[int]]:
    """Add random d-strips to a small random inner partition by sliding
    beads up their runners, so a border-strip tableau exists.  The size
    ends between 30 and 70.  With ``band`` set, strips are added until the
    walk work (states times outer length, which only grows with the shape)
    falls in the band; a strip that would overshoot is swapped for another
    one, and the shape starts over when every choice overshoots."""
    while True:
        size = rng.randrange(30 // d * d + d, 70 // d * d + 1, d) if band is None else 70 // d * d
        inner = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 4))), reverse=True)
        r = len(inner) + rng.randint(1, 6)
        beads = set(beta_set(inner, r))
        for added in range(1, size // d + 1):
            choices = sorted(b for b in beads if b + d not in beads)
            rng.shuffle(choices)
            for p in choices:
                grown = (beads - {p}) | {p + d}
                if band is None or added * d < 30:
                    break
                outer = from_beta(grown)
                work = walk_states(outer, inner, d) * len(outer)
                if work < band[1]:
                    break
            else:
                break  # every strip overshoots: start over
            beads = grown
            if band is not None and added * d >= 30 and work >= band[0]:
                return outer, inner
        else:
            outer = from_beta(beads)
            if band is None and (max_rows is None or len(outer) <= max_rows):
                return outer, inner


def _nu(rng: random.Random, size: int, d: int) -> str:
    """Strip sizes for skew_char: all d except one merged 2d part."""
    parts = [d] * (size // d - 1)
    parts[rng.randrange(len(parts))] = 2 * d
    return ",".join(str(p) for p in parts)


def strip_walk(seed: int, blocks: int) -> list[list[tuple]]:
    rng = random.Random(f"strip-walk:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for d in (2, 3, 4):
            # the latency quantiles fall inside groups, not between them:
            # 11 cheap operations, 12 small walks (p50), 3 medium walks and
            # the 3 typed characters, whose cost varies more, 6 large (p90)
            for band in (WORK_SMALL,) * 4 + (WORK_MEDIUM,) + (WORK_LARGE,) * 2:
                block.append(("skew_char_rect", fmt_shape(*_strip_shape(rng, d, band)), d))
            outer, inner = _strip_shape(rng, d, WORK_MEDIUM)
            block.append(("skew_char", fmt_shape(outer, inner), _nu(rng, sum(outer) - sum(inner), d)))
            block.append(("perm", fmt_shape(*_strip_shape(rng, d)), d))
        for d in (2, 3):
            block.append(("skew_quotient", fmt_shape(*_strip_shape(rng, d)), d))
            block.append(("core", fmt_partition(_strip_shape(rng, d)[0]), d))
        for d in (2, 4):
            outer, inner = _strip_shape(rng, d, max_rows=9)
            block.append(("eval_at_root", fmt_shape(outer, inner), d * rng.randint(1, 3), d))
            outer, inner = _strip_shape(rng, d, max_rows=9)
            block.append(("kostka_foulkes_rect_at_root", fmt_shape(outer, inner), d, (sum(outer) - sum(inner)) // d))
        rng.shuffle(block)
        out.append(block)
    return out


# --- cli-mix --------------------------------------------------------------


def cli_mix(seed: int, blocks: int) -> list[list[tuple]]:
    rng = random.Random(f"cli-mix:{seed}")
    out = []
    for _ in range(blocks):
        block = []
        for _ in range(4):
            outer, inner = _few_rows(rng)
            m = rng.choice((3, 4, 6, 9))
            k = rng.choice((3, 4, 6))
            block.append(("cli", "analyze", "--shape", fmt_shape([m * p for p in outer], [m * p for p in inner]),
                          "--vars", str(k), "--mod", str(m), "--json"))
        for _ in range(2):
            # small enough for the tableau enumeration to check
            outer, inner = _few_rows(rng)
            m = rng.choice((1, 2))
            shape = fmt_shape([m * p for p in outer], [m * p for p in inner])
            block.append(("cli", "specialize", "--shape", shape, "--vars", str(rng.choice((2, 3))),
                          "--mod", str(rng.choice((3, 4, 6))), "--json"))
            d = rng.choice((2, 3))
            block.append(("cli", "quotient", "--shape", fmt_shape(*_strip_shape(rng, d)), "--order", str(d), "--json"))
            block.append(("cli", "core", "--shape", fmt_partition(_strip_shape(rng, d)[0]), "--order", str(d), "--json"))
            block.append(("cli", "perm", "--shape", fmt_shape(*_strip_shape(rng, d)), "--order", str(d), "--json"))
            d = rng.choice((3, 4))
            block.append(("cli", "char", "--shape", fmt_shape(*_strip_shape(rng, d, WORK_SMALL)), "--type", str(d), "--json"))
            outer, inner = _strip_shape(rng, d, max_rows=9)
            block.append(("cli", "eval-root", "--shape", fmt_shape(outer, inner), "--vars", str(d * rng.randint(1, 2)),
                          "--order", str(d), "--json"))
            block.append(("cli", "bst", "--shape", fmt_shape(*_strip_shape(rng, d, WORK_SMALL)), "--order", str(d),
                          "--show", "1", "--json"))
        block.append(("cli", "verify"))
        rng.shuffle(block)
        out.append(block)
    return out


GENERATORS = {
    "det-rows": det_rows,
    "cold-tables": cold_tables,
    "strip-walk": strip_walk,
    "cli-mix": cli_mix,
}


def generate(workload: str, seed: int, blocks: int | None = None) -> list[list[tuple]]:
    return GENERATORS[workload](seed, POOL_BLOCKS[workload] if blocks is None else blocks)
