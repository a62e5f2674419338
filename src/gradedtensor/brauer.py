"""The Brauer algebra B_D(z) on diagrams of 2D points.

Points 1..D form the top row and D+1..2D the bottom row; a diagram is a
perfect matching of the 2D points.  Products stack the left factor
below the right one and straighten; every closed loop removed in the
straightening contributes one factor of the formal loop weight z.
Coefficients stay polynomial in z throughout, so one computation serves
both gradings; z is evaluated to (-1)^b N only at representation or
model boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .combinatorics import DirectedPairing, pairing_sign, partner_map, strand_walk
from .polynomial import Poly
from .young import GroupAlgebraElement, Perm

Pair = Tuple[int, int]


@dataclass(frozen=True)
class BrauerDiagram:
    """A perfect matching of {1..2D}, stored canonically.

    Each pair is (smaller, larger) and pairs are sorted, so structurally
    equal diagrams are equal as dictionary keys.
    """

    D: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self):
        canon = tuple(sorted((min(p), max(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", canon)
        seen = [x for p in canon for x in p]
        if len(canon) != self.D or sorted(seen) != list(range(1, 2 * self.D + 1)):
            raise ValueError("pairs must form a perfect matching of {1..2D}")

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

    @classmethod
    def from_json(cls, data: dict) -> "BrauerDiagram":
        return cls(int(data["D"]), tuple((int(a), int(b)) for a, b in data["pairs"]))


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

    def evaluated(self, z_value) -> Dict[BrauerDiagram, Fraction]:
        """Coefficients with z evaluated at a rational value."""
        return {d: c(z_value) for d, c in self.terms.items()}

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda t: t[0].pairs)
        return {
            "D": self.D,
            "terms": [
                {"diagram": d.to_json(), "coeff": [str(x) for x in c.coeffs]}
                for d, c in items
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BrauerElement":
        D = int(data["D"])
        terms = {}
        for item in data["terms"]:
            d = BrauerDiagram.from_json(item["diagram"])
            c = Poly([Fraction(str(x)) for x in item["coeff"]])
            terms[d] = terms.get(d, Poly()) + c
        return cls(D, terms)


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
