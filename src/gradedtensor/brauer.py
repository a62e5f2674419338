"""The Brauer algebra B_D(z) on diagrams of 2D points.

Points 1..D form the top row and D+1..2D the bottom row; a diagram is a
perfect matching of the 2D points.  Products stack the left factor
below the right one and straighten; every closed loop removed in the
straightening contributes one factor of the formal loop weight z.
`multiply` keeps coefficients polynomial in z, so one computation serves
both gradings.  The projector builders of `representation` need only
z = (-1)^b N: they keep integer numerators keyed by diagram number in
`diagram_basis(D)`, which numbers the diagrams of B_D on first visit and
compiles each diagram's moves once into int rows.  The rows are filled
from partner tuples (`partners`) by two local products, `times_beta` and
the transposition `transposed`, which stay the tests' reference for the
rows.  The grading sign of each diagram is compiled once into an int
too (`eta`, read by the tensor-map filler of `representation`, with
`eta_sign` as its reference).  Products with the arc sum A are taken
as e*A, A above e: on the
projector elements, polynomials in A times a Young symmetrizer, that is
A*e, since A commutes with every permutation (Nazarov, J. Algebra 182
(1996)).  One basis per D serves every build in the process, because the
rows pay only when shared: compiled afresh for each build they ran bench
`projector` at 0.105 s per pass on a 2-core VM, no faster than the
partner tuples they replace (0.099 s), and shared at 0.070 s.  Their
memory grows with the diagrams visited: `projector 6 --N 3` peaks at
27.5 MB RSS, 22 MB without rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .combinatorics import DirectedPairing, canonical_matching, pairing_sign, partner_map, strand_walk
from .polynomial import Poly
from .young import GroupAlgebraElement, Perm

Pair = Tuple[int, int]
# p[x] is the partner of point x, for the points x = 1..2D; p[0] = 0 pads
# the tuple so that points index it directly.
Partners = Tuple[int, ...]


@dataclass(frozen=True)
class BrauerDiagram:
    """A perfect matching of {1..2D}, stored canonically.

    Each pair is (smaller, larger) and pairs are sorted, so structurally
    equal diagrams are equal as dictionary keys.
    """

    D: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self):
        canon = canonical_matching(self.pairs, 2 * self.D)
        if canon is None:
            raise ValueError("pairs must form a perfect matching of {1..2D}")
        object.__setattr__(self, "pairs", canon)

    # -- structure queries --------------------------------------------------

    def through_strands(self) -> Tuple[Pair, ...]:
        """(top point, bottom point) pairs crossing between the rows."""
        return tuple(p for p in self.pairs if p[0] <= self.D < p[1])

    def top_arcs(self) -> Tuple[Pair, ...]:
        return tuple(p for p in self.pairs if p[1] <= self.D)

    def bottom_arcs(self) -> Tuple[Pair, ...]:
        return tuple(p for p in self.pairs if p[0] > self.D)

    def oriented(self) -> DirectedPairing:
        """The canonical orientation used for the grading sign.

        Through strands run top to bottom, top arcs left to right and
        bottom arcs right to left.
        """
        out = []
        for a, b in self.pairs:
            if a <= self.D < b:
                out.append((a, b))
            elif b <= self.D:
                out.append((a, b))
            else:
                out.append((b, a))
        return DirectedPairing(2 * self.D, tuple(out))

    def to_json(self) -> dict:
        return {"D": self.D, "pairs": [list(p) for p in self.pairs]}


# -- named diagrams ---------------------------------------------------------


def identity_diagram(D: int) -> BrauerDiagram:
    return BrauerDiagram(D, tuple((i, D + i) for i in range(1, D + 1)))


def from_permutation(p: Perm) -> BrauerDiagram:
    """Embed a permutation as the arc-free diagram i -> D + p(i)."""
    D = len(p)
    return BrauerDiagram(D, tuple((i + 1, D + p[i] + 1) for i in range(D)))


def sigma_ij(D: int, i: int, j: int) -> BrauerDiagram:
    """The diagram swapping strands i and j."""
    if not (1 <= i < j <= D):
        raise ValueError(f"need 1 <= i < j <= D, got i={i}, j={j}, D={D}")
    pairs = [(i, D + j), (j, D + i)]
    pairs += [(k, D + k) for k in range(1, D + 1) if k not in (i, j)]
    return BrauerDiagram(D, tuple(pairs))


def beta_ij(D: int, i: int, j: int) -> BrauerDiagram:
    """Top arc (i, j), bottom arc (i', j'), all other strands vertical."""
    if not (1 <= i < j <= D):
        raise ValueError(f"need 1 <= i < j <= D, got i={i}, j={j}, D={D}")
    pairs = [(i, j), (D + i, D + j)]
    pairs += [(k, D + k) for k in range(1, D + 1) if k not in (i, j)]
    return BrauerDiagram(D, tuple(pairs))


def generator_sigma(D: int, i: int) -> BrauerDiagram:
    """Adjacent transposition generator, 1 <= i <= D-1."""
    if not (1 <= i <= D - 1):
        raise ValueError(f"generator index out of range: i={i}, D={D}")
    return sigma_ij(D, i, i + 1)


def generator_beta(D: int, i: int) -> BrauerDiagram:
    """Adjacent arc generator, 1 <= i <= D-1."""
    if not (1 <= i <= D - 1):
        raise ValueError(f"generator index out of range: i={i}, D={D}")
    return beta_ij(D, i, i + 1)


# -- diagram product --------------------------------------------------------


def compose_diagrams(d1: BrauerDiagram, d2: BrauerDiagram) -> Tuple[BrauerDiagram, int]:
    """The product d1*d2 (d1 placed below d2) and the loop count.

    Straightens the stacked picture: d2 keeps its points 1..2D and d1's
    points are shifted to D+1..3D, so d2's bottom row is glued to d1's
    top row.  `strand_walk` joins the free points 1..D and 2D+1..3D
    through the middle layer and counts the closed loops confined to it.
    """
    if d1.D != d2.D:
        raise ValueError("strand-count mismatch")
    D = d1.D
    paths, loops = strand_walk(partner_map(d2.pairs), partner_map(d1.pairs, D))
    pairs = tuple((a if a <= D else a - D, b if b <= D else b - D) for a, b in paths)
    return BrauerDiagram(D, pairs), loops


# -- products on partner tuples ---------------------------------------------


def partners(d: BrauerDiagram) -> Partners:
    """The partner tuple of a diagram."""
    p = [0] * (2 * d.D + 1)
    for a, b in d.pairs:
        p[a], p[b] = b, a
    return tuple(p)


def from_partners(p: Partners) -> BrauerDiagram:
    return BrauerDiagram(len(p) // 2, tuple((x, y) for x, y in enumerate(p) if 0 < x < y))


def times_beta(p: Partners, i: int, j: int) -> Partners:
    """d*beta_ij (d below beta_ij), for d with partners p.

    beta_ij's bottom arc (i', j') meets d's top points i and j.  If d
    pairs them, that closes one loop and p itself comes back; otherwise
    it joins their partners and closes none.  Either way beta_ij's top
    arc makes (i, j) a top arc.  `compose_diagrams(d, beta_ij(D, i, j))`
    gives the same; at d's bottom points D+i, D+j this is beta_ij*d.
    """
    a, b = p[i], p[j]
    if a == j:
        return p
    q = list(p)
    q[a], q[b], q[i], q[j] = b, a, j, i
    return tuple(q)


def transposed(p: Partners, x: int, y: int) -> Partners:
    """The diagram with its points x and y swapped, for d with partners p.

    At top points i, j this is d*sigma_ij (sigma_ij above d), and at
    bottom points D+i, D+j it is sigma_ij*d (sigma_ij below d); neither
    closes a loop.
    """
    a, b = p[x], p[y]
    if a == y:
        return p
    q = list(p)
    q[x], q[y], q[a], q[b] = b, a, y, x
    return tuple(q)


# -- diagrams numbered per D --------------------------------------------------


class DiagramBasis:
    """The diagrams of B_D, numbered on first visit, with their moves as int rows.

    `number(p)` gives the diagram with partner tuple p the next free
    number the first time it is seen.  Row entry a of a diagram k is read
    at the arc `arcs[a]` = (i, j), and each reading of k is compiled the
    first time it is asked for, then kept:

    - `top(k)`: d*beta_ij, `times_beta` at the top points i, j;
    - `swapped(k)`: sigma_ij*d, `transposed` at D+i, D+j;
    - `loops(k)`: the loops of d closed by the identity, the cycles of
      `strand_walk` against the closure pairs (i, D+i);
    - `eta(k)`: the grading sign of d, `eta_sign` of its diagram;
    - `diagram(k)`: the `BrauerDiagram`.

    beta_ij closes a loop exactly when it leaves the diagram unchanged, so
    a top entry equal to k means one loop and any other entry none.  No
    row holds beta_ij below d: A*e is read as e*A (see the module
    docstring).  The identity is diagram 0.
    """

    __slots__ = (
        "D", "arcs", "arc_number", "partners", "_index",
        "_top", "_swapped", "_loops", "_eta", "_diagrams",
    )

    def __init__(self, D: int):
        self.D = D
        self.arcs = [(i, j) for i in range(1, D) for j in range(i + 1, D + 1)]
        self.arc_number = {arc: a for a, arc in enumerate(self.arcs)}
        self.partners: List[Partners] = []
        self._index: Dict[Partners, int] = {}
        self._top: Dict[int, Tuple[int, ...]] = {}
        self._swapped: Dict[int, Tuple[int, ...]] = {}
        self._loops: Dict[int, int] = {}
        self._eta: Dict[int, int] = {}
        self._diagrams: Dict[int, BrauerDiagram] = {}
        self.number(partners(identity_diagram(D)))

    def number(self, p: Partners) -> int:
        k = self._index.get(p)
        if k is None:
            k = self._index[p] = len(self.partners)
            self.partners.append(p)
        return k

    def top(self, k: int) -> Tuple[int, ...]:
        row = self._top.get(k)
        if row is None:
            p = self.partners[k]
            row = self._top[k] = tuple(self.number(times_beta(p, i, j)) for i, j in self.arcs)
        return row

    def swapped(self, k: int) -> Tuple[int, ...]:
        row = self._swapped.get(k)
        if row is None:
            p, D = self.partners[k], self.D
            row = self._swapped[k] = tuple(
                self.number(transposed(p, D + i, D + j)) for i, j in self.arcs
            )
        return row

    def loops(self, k: int) -> int:
        loops = self._loops.get(k)
        if loops is None:
            diagram, closure = (dict(enumerate(self.partners[x][1:], 1)) for x in (k, 0))
            loops = self._loops[k] = strand_walk(diagram, closure)[1]
        return loops

    def eta(self, k: int) -> int:
        sign = self._eta.get(k)
        if sign is None:
            sign = self._eta[k] = eta_sign(from_partners(self.partners[k]))
        return sign

    def diagram(self, k: int) -> BrauerDiagram:
        d = self._diagrams.get(k)
        if d is None:
            d = self._diagrams[k] = from_partners(self.partners[k])
        return d


@functools.cache
def diagram_basis(D: int) -> DiagramBasis:
    """The one `DiagramBasis` of B_D in this process, shared by every caller."""
    return DiagramBasis(D)


# -- linear combinations ----------------------------------------------------


class BrauerElement:
    """A finite linear combination of Brauer diagrams.

    Coefficients are exact polynomials in the formal loop weight z; no
    zero coefficients are stored.
    """

    __slots__ = ("D", "terms")

    def __init__(self, D: int, terms: Dict[BrauerDiagram, Poly]):
        self.D = D
        clean: Dict[BrauerDiagram, Poly] = {}
        for d, c in terms.items():
            if d.D != D:
                raise ValueError("strand-count mismatch in element terms")
            c = c if isinstance(c, Poly) else Poly.const(c)
            if c:
                clean[d] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, D: int) -> "BrauerElement":
        return cls(D, {})

    @classmethod
    def one(cls, D: int) -> "BrauerElement":
        return cls(D, {identity_diagram(D): Poly.const(1)})

    @classmethod
    def of_diagram(cls, d: BrauerDiagram, coeff=1) -> "BrauerElement":
        return cls(d.D, {d: coeff if isinstance(coeff, Poly) else Poly.const(coeff)})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "BrauerElement") -> "BrauerElement":
        if self.D != other.D:
            raise ValueError("strand-count mismatch")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, Poly()) + c
        return BrauerElement(self.D, terms)

    def __sub__(self, other: "BrauerElement") -> "BrauerElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "BrauerElement":
        c = c if isinstance(c, Poly) else Poly.const(c)
        return BrauerElement(self.D, {d: coeff * c for d, coeff in self.terms.items()})

    def __mul__(self, other: "BrauerElement") -> "BrauerElement":
        return multiply(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, BrauerElement)
            and self.D == other.D
            and self.terms == other.terms
        )

    def __repr__(self):
        parts = [f"({c.format('z')})*{d.pairs}" for d, c in sorted(self.terms.items(), key=lambda t: t[0].pairs)]
        return f"BrauerElement[D={self.D}]({' + '.join(parts) or '0'})"

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda t: t[0].pairs)
        return {
            "D": self.D,
            "terms": [
                {"diagram": d.to_json(), "coeff": [str(x) for x in c.coeffs]}
                for d, c in items
            ],
        }


def multiply(e1: BrauerElement, e2: BrauerElement) -> BrauerElement:
    """Bilinear extension of the diagram product with z^loops factors."""
    if e1.D != e2.D:
        raise ValueError("strand-count mismatch")
    terms: Dict[BrauerDiagram, Poly] = {}
    for d1, c1 in e1.terms.items():
        for d2, c2 in e2.terms.items():
            prod, loops = compose_diagrams(d1, d2)
            coeff = c1 * c2 * Poly.monomial(loops)
            terms[prod] = terms.get(prod, Poly()) + coeff
    return BrauerElement(e1.D, terms)


def casimir_ad(D: int) -> BrauerElement:
    """The sum of all beta_ij for 1 <= i < j <= D, with unit coefficients."""
    if D < 2:
        raise ValueError("casimir element needs D >= 2")
    terms = {beta_ij(D, i, j): Poly.const(1) for i in range(1, D) for j in range(i + 1, D + 1)}
    return BrauerElement(D, terms)


def reference_pairing(D: int) -> DirectedPairing:
    """{(1, D+1), ..., (D, 2D)}: top points paired straight down."""
    return DirectedPairing(2 * D, tuple((i, D + i) for i in range(1, D + 1)))


def eta_sign(d: BrauerDiagram) -> int:
    """The grading sign of a diagram's action in the signed representation.

    Computed as the pairing sign of the canonically oriented diagram
    against the straight-down reference pairing; for permutation
    diagrams this is the permutation's sign.
    """
    return pairing_sign(d.oriented(), reference_pairing(d.D))


def embed_group_algebra(e: GroupAlgebraElement, D: int) -> BrauerElement:
    """View a symmetric-group-algebra element as arc-free diagrams."""
    if e.n != D:
        raise ValueError("size mismatch")
    terms = {from_permutation(p): Poly.const(c) for p, c in e.terms.items()}
    return BrauerElement(D, terms)
