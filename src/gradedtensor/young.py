"""Partitions, Young diagrams, hook lengths, Young symmetrizers and
Littlewood-Richardson coefficients.

Only the canonical row-major tableau is supported; row and column
groups are materialized as explicit permutation sets, which caps
practical diagram sizes at |lambda| around 8.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .polynomial import Poly

Perm = Tuple[int, ...]  # perm[i] is the 0-based image of i


# -- permutations ----------------------------------------------------------


def compose_perms(p: Perm, q: Perm) -> Perm:
    """(p . q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_sign(p: Perm) -> int:
    seen = [False] * len(p)
    sign = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def all_perms(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(n))


# -- diagrams --------------------------------------------------------------


@dataclass(frozen=True)
class YoungDiagram:
    """A partition written as non-increasing positive row lengths."""

    rows: Tuple[int, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty partition")
        if any(r <= 0 for r in self.rows):
            raise ValueError("row lengths must be positive")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError("row lengths must be non-increasing")

    @classmethod
    def of(cls, *rows: int) -> "YoungDiagram":
        return cls(tuple(rows))

    @property
    def size(self) -> int:
        return sum(self.rows)

    def boxes(self) -> Iterator[Tuple[int, int]]:
        """(row, column) coordinates, 1-based, row-major."""
        for i, r in enumerate(self.rows, start=1):
            for j in range(1, r + 1):
                yield (i, j)

    def __str__(self):
        return "(" + ",".join(str(r) for r in self.rows) + ")"


def partitions(d: int) -> Iterator[Tuple[int, ...]]:
    """All partitions of d in reverse lexicographic order."""

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(d, d)


def transpose(lam: YoungDiagram) -> YoungDiagram:
    """Interchange rows and columns."""
    cols = tuple(sum(1 for r in lam.rows if r >= j) for j in range(1, lam.rows[0] + 1))
    return YoungDiagram(cols)


def hook_length(lam: YoungDiagram, i: int, j: int) -> int:
    """Arm + leg + 1 of box (i, j), 1-based."""
    if not (1 <= i <= len(lam.rows) and 1 <= j <= lam.rows[i - 1]):
        raise ValueError(f"box ({i},{j}) outside diagram {lam}")
    arm = lam.rows[i - 1] - j
    leg = sum(1 for r in lam.rows[i:] if r >= j)
    return arm + leg + 1


def gl_dimension_poly(lam: YoungDiagram) -> Poly:
    """dim of the GL(N) representation of shape lambda, as a polynomial in N.

    The product over boxes of (N - i + j) / h_ij, expanded exactly.
    """
    num = Poly.const(1)
    denom = 1
    for (i, j) in lam.boxes():
        num = num * Poly((Fraction(j - i), Fraction(1)))
        denom *= hook_length(lam, i, j)
    return num * Fraction(1, denom)


def dimension_duality_check(lam: YoungDiagram) -> bool:
    """dim(lambda, -N) == (-1)^|lambda| dim(lambda', N) as exact polynomials."""
    left = gl_dimension_poly(lam).reflected()
    right = gl_dimension_poly(transpose(lam)) * Fraction((-1) ** lam.size)
    return left == right


# -- canonical tableau and symmetrizers ------------------------------------


@dataclass(frozen=True)
class CanonicalTableau:
    """The row-major numbering 1..D of the boxes of a diagram."""

    shape: YoungDiagram

    def rows_of_entries(self) -> Tuple[Tuple[int, ...], ...]:
        out = []
        k = 1
        for r in self.shape.rows:
            out.append(tuple(range(k, k + r)))
            k += r
        return tuple(out)

    def columns_of_entries(self) -> Tuple[Tuple[int, ...], ...]:
        rows = self.rows_of_entries()
        width = self.shape.rows[0]
        return tuple(
            tuple(row[j] for row in rows if len(row) > j) for j in range(width)
        )


def _block_preserving_perms(blocks: Tuple[Tuple[int, ...], ...], d: int) -> Tuple[Perm, ...]:
    """All permutations of {0..d-1} preserving each block (entries 1-based)."""
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        img = list(range(d))
        for block, image in zip(blocks, parts):
            for src, dst in zip(block, image):
                img[src - 1] = dst - 1
        out.append(tuple(img))
    return tuple(out)


def row_group(lam: YoungDiagram) -> Tuple[Perm, ...]:
    """Permutations preserving each row of the canonical tableau."""
    return _block_preserving_perms(CanonicalTableau(lam).rows_of_entries(), lam.size)


def column_group(lam: YoungDiagram) -> Tuple[Perm, ...]:
    """Permutations preserving each column of the canonical tableau."""
    return _block_preserving_perms(CanonicalTableau(lam).columns_of_entries(), lam.size)


class GroupAlgebraElement:
    """A finite rational linear combination of permutations of {1..D}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Perm, Fraction]):
        self.n = n
        self.terms = {p: Fraction(c) for p, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {})

    @classmethod
    def of_perm(cls, p: Perm, c=1) -> "GroupAlgebraElement":
        return cls(len(p), {p: Fraction(c)})

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError("size mismatch")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
        return GroupAlgebraElement(self.n, terms)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            if self.n != other.n:
                raise ValueError("size mismatch")
            terms: Dict[Perm, Fraction] = {}
            for p, cp in self.terms.items():
                for q, cq in other.terms.items():
                    r = compose_perms(p, q)
                    terms[r] = terms.get(r, Fraction(0)) + cp * cq
            return GroupAlgebraElement(self.n, terms)
        return GroupAlgebraElement(self.n, {p: c * Fraction(other) for p, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(f"{c}*{p}" for p, c in sorted(self.terms.items()))
        return f"GroupAlgebraElement({body or '0'})"


def young_symmetrizer(lam: YoungDiagram) -> GroupAlgebraElement:
    """c = (sum of row permutations) * (signed sum of column permutations).

    No normalization is applied; c*c = n_c * c with the nonzero rational
    n_c available from `symmetrizer_norm`.
    """
    d = lam.size
    a = GroupAlgebraElement(d, {p: Fraction(1) for p in row_group(lam)})
    b = GroupAlgebraElement(d, {q: Fraction(perm_sign(q)) for q in column_group(lam)})
    return a * b


def symmetrizer_norm(lam: YoungDiagram) -> Fraction:
    """The scalar n with c*c = n*c for the Young symmetrizer of lambda:
    the product of the hook lengths."""
    return Fraction(math.prod(hook_length(lam, i, j) for (i, j) in lam.boxes()))


# -- contents and Littlewood-Richardson coefficients ----------------------


def content_sum(rows: Tuple[int, ...]) -> int:
    """Sum over the boxes of a partition of (column - row)."""
    return sum(j - i for i, r in enumerate(rows) for j in range(r))


def lr_coefficient(lam: Tuple[int, ...], mu: Tuple[int, ...], nu: Tuple[int, ...]) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu nu}.

    Counts the semistandard fillings of the skew shape lam/mu with content
    nu whose reading word (rows top to bottom, each right to left) is a
    lattice word.  Partitions are row tuples; () is the empty partition.
    """
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam):
        return 0
    mu = mu + (0,) * (len(lam) - len(mu))
    if any(m > r for m, r in zip(mu, lam)):
        return 0
    cells = [(i, j) for i, r in enumerate(lam) for j in range(r - 1, mu[i] - 1, -1)]
    filled: Dict[Tuple[int, int], int] = {}
    used = [0] * len(nu)

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        i, j = cells[k]
        right = filled.get((i, j + 1), len(nu) - 1)
        above = filled.get((i - 1, j), -1)
        total = 0
        for v in range(above + 1, right + 1):
            if used[v] == nu[v] or (v and used[v] == used[v - 1]):
                continue
            filled[(i, j)] = v
            used[v] += 1
            total += fill(k + 1)
            used[v] -= 1
        filled.pop((i, j), None)
        return total

    return fill(0)
