"""Colorings of [n], partition matrices, and their monoid action.

Sites are numbered 1..n and colors 1..k. A coloring is a word in [k]^n,
equivalently a labeled partition of [n] into k (possibly empty) color
classes. A partition matrix is a k x k array of disjoint subsets of [n]
whose every column is itself a labeled partition of [n]. Matrices act on
colorings by block substitution and compose by a union-of-intersections
product, forming a monoid whose identity has [n] on the diagonal.

Subsets of [n] are stored as bitmasks (bit i-1 represents site i); the
public contract is set identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

MAX_COLORS = 16

_DIGITS = "123456789ABCDEFG"


def _check_dims(n: int, k: int) -> None:
    if n < 1:
        raise ValidationError(f"need at least one site, got n={n}", field="n")
    if not 1 <= k <= MAX_COLORS:
        raise ValidationError(f"color count k={k} outside 1..{MAX_COLORS}", field="k")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_to_sites(mask: int) -> tuple[int, ...]:
    sites = []
    while mask:
        low = mask & -mask
        sites.append(low.bit_length())
        mask ^= low
    return tuple(sites)


@dataclass(frozen=True)
class Coloring:
    """A k-coloring of [n], stored as its color word (colors are 1-based)."""

    n: int
    k: int
    word: tuple[int, ...]

    def __post_init__(self):
        _check_dims(self.n, self.k)
        if len(self.word) != self.n:
            raise ValidationError(
                f"word length {len(self.word)} does not match n={self.n}", field="word"
            )
        for c in self.word:
            if not 1 <= c <= self.k:
                raise ValidationError(f"color {c} outside 1..{self.k}", field="word")

    @classmethod
    def from_word(cls, word, k: int) -> "Coloring":
        word = tuple(int(c) for c in word)
        return cls(len(word), k, word)

    @classmethod
    def constant(cls, n: int, k: int, color: int) -> "Coloring":
        return cls(n, k, (color,) * n)

    @classmethod
    def from_classes(cls, classes) -> "Coloring":
        """Build from a tuple of per-color bitmasks (index j holds color j+1)."""
        classes = tuple(int(m) for m in classes)
        union = 0
        total = 0
        for m in classes:
            union |= m
            total += m.bit_count()
        n = union.bit_length()
        if total != n or union != full_mask(n):
            raise ValidationError("classes must be disjoint and cover 1..n exactly")
        word = [0] * n
        for j, m in enumerate(classes):
            while m:
                low = m & -m
                word[low.bit_length() - 1] = j + 1
                m ^= low
        return cls(n, len(classes), tuple(word))

    def classes(self) -> tuple[int, ...]:
        """Per-color bitmasks; index j is the class of color j+1."""
        masks = [0] * self.k
        for i, c in enumerate(self.word):
            masks[c - 1] |= 1 << i
        return tuple(masks)

    def counts(self) -> tuple[int, ...]:
        out = [0] * self.k
        for c in self.word:
            out[c - 1] += 1
        return tuple(out)

    def to_string(self) -> str:
        return "".join(_DIGITS[c - 1] for c in self.word)

    @classmethod
    def from_string(cls, text: str, k: int) -> "Coloring":
        if not text:
            raise ValidationError("need at least one color digit", field="word")
        word = []
        for ch in text:
            try:
                c = _DIGITS.index(ch.upper()) + 1
            except ValueError:
                raise ValidationError(f"bad color digit {ch!r}", field="word") from None
            word.append(c)
        return cls(len(word), k, tuple(word))


@dataclass(frozen=True)
class UnlabeledPartition:
    """A set partition of [n], blocks stored as bitmasks sorted by least site."""

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        union = 0
        total = 0
        for b in self.blocks:
            if b == 0:
                raise ValidationError("empty block in unlabeled partition")
            union |= b
            total += b.bit_count()
        if total != self.n or union != full_mask(self.n):
            raise ValidationError("blocks must be disjoint and cover 1..n")
        ordered = tuple(sorted(self.blocks, key=lambda b: b & -b))
        object.__setattr__(self, "blocks", ordered)

    def block_count(self) -> int:
        return len(self.blocks)

    def to_lists(self) -> list[list[int]]:
        return [list(mask_to_sites(b)) for b in self.blocks]


@dataclass(frozen=True)
class PartitionMatrix:
    """k x k matrix of disjoint subsets of [n]; every column partitions [n].

    cells[i][j] is the bitmask in row i+1, column j+1. Under the action on
    colorings, a site currently colored j+1 moves to the color of the row
    that contains it in column j+1.
    """

    n: int
    k: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_dims(self.n, self.k)
        if len(self.cells) != self.k or any(len(row) != self.k for row in self.cells):
            raise ValidationError("cells must form a k x k array")
        cells = tuple(tuple(int(m) for m in row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        full = full_mask(self.n)
        for j in range(self.k):
            union = 0
            total = 0
            for i in range(self.k):
                m = cells[i][j]
                union |= m
                total += m.bit_count()
            if union != full or total != self.n:
                raise ValidationError(
                    f"column {j + 1} is not a partition of 1..{self.n}", field="cells"
                )

    def column(self, j: int) -> Coloring:
        """Column j+1 read as the coloring that sends sites to their row color."""
        return Coloring.from_classes(tuple(self.cells[i][j] for i in range(self.k)))


def identity_matrix(n: int, k: int) -> PartitionMatrix:
    full = full_mask(n)
    cells = tuple(
        tuple(full if i == j else 0 for j in range(k)) for i in range(k)
    )
    return PartitionMatrix(n, k, cells)


def matmul(a: PartitionMatrix, b: PartitionMatrix) -> PartitionMatrix:
    """Monoid product: (ab)[i][j] = union over l of a[i][l] & b[l][j]."""
    if a.n != b.n or a.k != b.k:
        raise ValidationError("partition matrices must share n and k")
    k = a.k
    cells = []
    for i in range(k):
        row = []
        ai = a.cells[i]
        for j in range(k):
            m = 0
            for l in range(k):
                m |= ai[l] & b.cells[l][j]
            row.append(m)
        cells.append(tuple(row))
    return PartitionMatrix(a.n, k, tuple(cells))


def act(m: PartitionMatrix, x: Coloring) -> Coloring:
    """Apply a partition matrix to a coloring: new class r = union_j m[r][j] & class_j."""
    if m.n != x.n or m.k != x.k:
        raise ValidationError("matrix and coloring must share n and k")
    old = x.classes()
    new = []
    for r in range(m.k):
        mask = 0
        row = m.cells[r]
        for j in range(m.k):
            mask |= row[j] & old[j]
        new.append(mask)
    return Coloring.from_classes(tuple(new))


def project(x: Coloring) -> UnlabeledPartition:
    """Forget color labels, keeping the nonempty blocks."""
    blocks = tuple(m for m in x.classes() if m)
    return UnlabeledPartition(x.n, blocks)


def matrix_to_colorings(m: PartitionMatrix) -> tuple[Coloring, ...]:
    """Identify a partition matrix with the k-tuple of its column colorings."""
    return tuple(m.column(j) for j in range(m.k))


def colorings_to_matrix(cols) -> PartitionMatrix:
    cols = tuple(cols)
    k = len(cols)
    n = cols[0].n
    for c in cols:
        if c.n != n or c.k != k:
            raise ValidationError("need k colorings of the same [n] with k colors")
    cells = []
    classes = [c.classes() for c in cols]
    for i in range(k):
        cells.append(tuple(classes[j][i] for j in range(k)))
    return PartitionMatrix(n, k, tuple(cells))
