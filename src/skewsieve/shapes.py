"""Partitions, skew shapes and compositions, and the border-strip test.

Everything downstream (abacus displays, Jacobi-Trudi matrices, tableau
enumeration) consumes the types defined here; ``is_border_strip`` is the
one shape predicate, which ``analysis`` reads.  All values are immutable
after construction and safe to share between threads.  Constructors take
integers only: a float or a string is a ``TypeError``, never truncated.
``Partition.beta_set`` is the one place that encodes a shape as bead
positions, and ``partition_from_beta`` reads them back.

Text formats: a partition is written as comma-separated parts, e.g.
``"9,9,6,6,6,4,1"``; the empty partition is ``""`` or ``"0"``.  A skew
shape is ``"OUTER/INNER"``, e.g. ``"9,9,6,6,6,4,1/2,1,1,1"``.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

from ._value import Value


def _parse_parts(text: str, kind: str, lo: int = 0, hi: int | None = None) -> list[int]:
    """Comma-separated runs of ASCII digits in text[lo:hi], spaces allowed
    around each; a blank span gives [].  A bad piece is named by its
    offset in text, which the message quotes whole."""
    span = text[lo:hi]
    if not span.strip():
        return []
    parts, pos = [], lo
    for chunk in span.split(","):
        piece = chunk.strip()
        if not (piece.isascii() and piece.isdigit()):
            raise ValueError(f"invalid {kind} at position {pos}: {text!r}")
        parts.append(int(piece))
        pos += len(chunk) + 1
    return parts


def _partition_in(text: str, lo: int = 0, hi: int | None = None) -> "Partition":
    """The partition written in text[lo:hi]; see ``_parse_parts``."""
    parts = _parse_parts(text, "partition", lo, hi)
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ValueError(f"invalid partition {text[lo:hi].strip()!r}: {exc}") from exc


class Partition(Value):
    """A weakly decreasing tuple of nonnegative integers (a Young diagram).

    Trailing zeros are accepted on input and stripped in the canonical
    form; equality and hashing use the canonical form.
    """

    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(index, parts))
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"negative part {p} at index {i}")
            if i > 0 and p > parts[i - 1]:
                raise ValueError(f"parts not weakly decreasing at index {i}: {parts}")
        n = len(parts)
        while n > 0 and parts[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "parts", parts[:n])

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated parts; "" and "0" give the empty partition."""
        return _partition_in(text.strip())

    @property
    def length(self) -> int:
        """Number of positive parts."""
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the length."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= p for i, p in enumerate(other.parts))

    def stretch(self, m: int) -> "Partition":
        """Multiply every part by m (m >= 1)."""
        if m < 1:
            raise ValueError("stretch factor must be >= 1")
        return Partition(m * p for p in self.parts)

    def beta_set(self, r: int) -> tuple[int, ...]:
        """The strictly decreasing sequence (p_1 + r - 1, ..., p_r + 0).

        Encodes the partition as r bead positions; requires r >= length.
        """
        if r < len(self.parts):
            raise ValueError("r too small")
        parts = self.parts + (0,) * (r - len(self.parts))
        return tuple([p + r - 1 - i for i, p in enumerate(parts)])

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def partition_from_beta(beta: Iterable[int]) -> Partition:
    """Recover the partition whose beta-set (for r = len(beta)) is given."""
    beta = sorted(beta, reverse=True)
    r = len(beta)
    return Partition(b - (r - 1 - i) for i, b in enumerate(beta))


class Composition(Value):
    """A finite sequence of nonnegative integers, not necessarily sorted."""

    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(index, parts))
        if any(p < 0 for p in parts):
            raise ValueError("composition parts must be nonnegative")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        return cls(_parse_parts(text.strip(), "composition"))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


class SkewShape(Value):
    """An outer partition with an inner partition contained in it.

    Cells are 1-based (row, column) pairs.
    """

    __slots__ = ("outer", "inner")
    _fields = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = Partition()):
        if not isinstance(outer, Partition) or not isinstance(inner, Partition):
            raise TypeError("SkewShape expects Partition arguments")
        if not outer.contains(inner):
            raise ValueError(f"{outer} does not contain {inner}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        """Parse "OUTER/INNER" or plain "OUTER" (straight shape).  Error
        positions count from the start of the whole (stripped) text."""
        text = text.strip()
        slash = text.find("/")
        if slash < 0:
            return cls(_partition_in(text))
        extra = text.find("/", slash + 1)
        if extra >= 0:
            raise ValueError(f"invalid shape at position {extra}: {text!r}")
        return cls(_partition_in(text, 0, slash), _partition_in(text, slash + 1))

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_interval(self, i: int) -> tuple[int, int]:
        """Columns occupied in row i (1-based): inner_i < col <= outer_i."""
        return self.inner.part(i - 1), self.outer.parts[i - 1]

    def cells(self) -> list[tuple[int, int]]:
        """All cells in row-major order as 1-based (row, column) pairs."""
        out = []
        for i in range(1, self.outer.length + 1):
            lo, hi = self.row_interval(i)
            out.extend((i, j) for j in range(lo + 1, hi + 1))
        return out

    def row_diffs(self) -> tuple[int, ...]:
        inner = self.inner
        return tuple(p - inner.part(i) for i, p in enumerate(self.outer.parts))

    def __str__(self) -> str:
        if self.inner.length == 0:
            return str(self.outer)
        return f"{self.outer}/{self.inner}"


def is_border_strip(shape: SkewShape) -> bool:
    """True iff the cells are edge-connected and contain no 2x2 block.

    Equivalently, the nonempty rows are consecutive and each adjacent pair
    of them shares exactly one column.  The empty shape is not a border
    strip.
    """
    rows = [i for i, d in enumerate(shape.row_diffs()) if d]
    if not rows or rows[-1] - rows[0] != len(rows) - 1:
        return False
    outer, inner = shape.outer.parts, shape.inner
    return all(outer[i + 1] - inner.part(i) == 1 for i in rows[:-1])
