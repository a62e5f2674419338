"""Directed pairings on finite ground sets and their signs.

A directed pairing splits the ground set {1, ..., 2k} into ordered
pairs.  Two pairings on the same ground set define a permutation
(flattened sequence of the first onto the flattened sequence of the
second) whose sign drives all the grading bookkeeping in the package.
The union of two pairings decomposes into even-length cycles of
alternating origin ("faces"); the parity of edge directions around each
cycle refines the sign into a face count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Pair = Tuple[int, int]


def canonical_matching(pairs: Iterable[Sequence[int]], n: int) -> Optional[Tuple[Pair, ...]]:
    """The pairs as sorted (smaller, larger) tuples, or None when they are
    not a perfect matching of {1, ..., n}; a node that does not compare
    with an int raises TypeError.  The pair count is compared with n/2
    before any list of n nodes is built."""
    try:
        canon = sorted((a, b) if a < b else (b, a) for a, b in pairs)
    except ValueError:  # an item that is not a pair
        return None
    if 2 * len(canon) != n or sorted([x for p in canon for x in p]) != list(range(1, n + 1)):
        return None
    return tuple(canon)


@dataclass(frozen=True)
class DirectedPairing:
    """An oriented perfect matching of {1, ..., n}.

    Pairs are ordered (orientation matters) and listed in a fixed order;
    the sign of two pairings does not depend on the listing order, only
    on the orientations.
    """

    n: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self):
        if canonical_matching(self.pairs, self.n) is None:
            raise ValueError("pairs must partition {1..n} with each element used exactly once")

    def flatten(self) -> Tuple[int, ...]:
        return tuple(x for p in self.pairs for x in p)

    def reorient(self, flip_indices: Iterable[int]) -> "DirectedPairing":
        """Flip the orientation of the pairs at the given positions."""
        flips = set(flip_indices)
        ps = tuple((b, a) if k in flips else (a, b) for k, (a, b) in enumerate(self.pairs))
        return DirectedPairing(self.n, ps)


@dataclass(frozen=True)
class FaceCycle:
    """One alternating cycle of the union of two pairings.

    `nodes` lists the ground-set elements in traversal order; `even` is
    True when an even number of edges point along the traversal
    direction (well defined because cycles have even length).
    """

    nodes: Tuple[int, ...]
    even: bool


@dataclass(frozen=True)
class FaceDecomposition:
    cycles: Tuple[FaceCycle, ...]

    @property
    def total(self) -> int:
        return len(self.cycles)

    @property
    def even_count(self) -> int:
        return sum(1 for c in self.cycles if c.even)

    @property
    def odd_count(self) -> int:
        return sum(1 for c in self.cycles if not c.even)


def perm_sign(p: Sequence[int]) -> int:
    """Sign of the permutation i -> p[i] of range(len(p)): (-1)^(len(p) - its cycle count)."""
    seen = [False] * len(p)
    cycles = 0
    for start in range(len(p)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = p[x]
    return -1 if (len(p) - cycles) % 2 else 1


def pairing_sign(m1: DirectedPairing, m2: DirectedPairing) -> int:
    """Sign of the permutation sending m1's flattened sequence to m2's.

    Computed in O(k) by cycle decomposition of the composite
    position-to-element maps rather than by inversion counting.
    """
    if m1.n != m2.n:
        raise ValueError("incompatible ground sets")
    # sigma = v o u^{-1} on 0-based ground elements, u and v the flattened pairings
    sigma = [0] * m1.n
    for u, v in zip(m1.flatten(), m2.flatten()):
        sigma[u - 1] = v - 1
    return perm_sign(sigma)


def all_pairings(n: int) -> Iterator[Tuple[Pair, ...]]:
    """Yield every undirected perfect matching of {1, ..., n} once.

    Enumeration is lazy and deterministic: the smallest unpaired element
    is matched with each larger element in increasing order, so the
    (2k-1)!! matchings come in increasing lexicographic order.  Each pair
    comes out as (smaller, larger); `canonical_orientation` turns a
    matching into a DirectedPairing with the same convention.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"ground set size must be positive and even, got {n}")
    elements = tuple(range(1, n + 1))

    def rec(remaining: Tuple[int, ...]) -> Iterator[Tuple[Pair, ...]]:
        if not remaining:
            yield ()
            return
        first = remaining[0]
        rest = remaining[1:]
        for i, other in enumerate(rest):
            head = (first, other)
            for tail in rec(rest[:i] + rest[i + 1 :]):
                yield (head,) + tail

    return rec(elements)


def canonical_orientation(matching: Iterable[Sequence[int]]) -> DirectedPairing:
    """Orient an undirected matching: (min, max) per pair, pairs sorted."""
    ps = tuple(sorted((min(p), max(p)) for p in matching))
    return DirectedPairing(2 * len(ps), ps)


def disjoint_union(m1: DirectedPairing, m2: DirectedPairing) -> DirectedPairing:
    """Concatenate two pairings, relabelling the second by an offset of m1.n."""
    off = m1.n
    ps = m1.pairs + tuple((a + off, b + off) for a, b in m2.pairs)
    return DirectedPairing(m1.n + m2.n, ps)


def face_decomposition(m1: DirectedPairing, m2: DirectedPairing) -> FaceDecomposition:
    """Alternating cycles of the union graph of two pairings, with parity.

    Each ground element meets exactly one m1-edge and one m2-edge, so the
    union is a disjoint set of even cycles alternating between the two
    colours.  A cycle is tagged even when an even number of its edges
    point along the traversal direction; pairing_sign(m1, m2) equals
    (-1) to the number of even cycles.
    """
    if m1.n != m2.n:
        raise ValueError("incompatible ground sets")
    nbr1 = {}
    nbr2 = {}
    for (a, b) in m1.pairs:
        nbr1[a] = (b, True)   # True: traversing a->b follows the stored direction
        nbr1[b] = (a, False)
    for (a, b) in m2.pairs:
        nbr2[a] = (b, True)
        nbr2[b] = (a, False)

    cycles = []
    visited = set()
    for start in range(1, m1.n + 1):
        if start in visited:
            continue
        nodes = []
        forward = 0
        x = start
        use_first = True
        while x not in visited:
            visited.add(x)
            nodes.append(x)
            nxt, along = (nbr1 if use_first else nbr2)[x]
            if along:
                forward += 1
            x = nxt
            use_first = not use_first
        cycles.append(FaceCycle(tuple(nodes), even=(forward % 2 == 0)))
    return FaceDecomposition(tuple(cycles))


def partner_map(pairs: Iterable[Pair], shift: int = 0) -> Dict[int, int]:
    """The symmetric point -> partner dict of a matching, points shifted by `shift`."""
    out = {}
    for a, b in pairs:
        out[a + shift] = b + shift
        out[b + shift] = a + shift
    return out


def strand_walk(first: Dict[int, int], second: Dict[int, int]) -> Tuple[List[Pair], int]:
    """Straighten the union of two partial matchings.

    Both arguments are symmetric point -> partner dicts.  A point that
    only one of them matches ends an alternating path; the result lists
    the (start, end) pair of each such path once, together with the
    number of closed alternating cycles, which use only points that both
    matchings cover.  For two perfect matchings there are no paths and
    the cycle count is the face count of `face_decomposition`.
    """
    seen = set()
    paths, loops = [], 0
    free = [p for p in first if p not in second] + [p for p in second if p not in first]
    for start in free + list(first):
        if start in seen:
            continue
        step, other = (first, second) if start in first else (second, first)
        x = step[start]
        while x != start and x in other:
            seen.add(x)
            step, other = other, step
            x = step[x]
        seen.update((start, x))
        if x == start:
            loops += 1
        else:
            paths.append((start, x))
    return paths, loops


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1; counts matchings of n+1 elements."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out
