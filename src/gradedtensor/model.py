"""Stranded-graph invariants, Wick expansion and graph amplitudes.

An invariant of 2p order-D tensors is encoded by a stranded graph: 2p
vertices of D nodes each, with a perfect matching (the strands) on the
nodes.  Gaussian expectations expand into 2-colored stranded graphs by
pairing vertices with propagator edges; every face (alternating-color
cycle) contributes one factor of (-1)^b N, which is the entire
N-dependence and the source of the orthogonal/symplectic duality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .brauer import BrauerDiagram, BrauerElement
from .combinatorics import (
    DirectedPairing,
    all_pairings,
    face_decomposition,
    pairing_sign,
)
from .polynomial import Poly

Pair = Tuple[int, int]


def _field(data: dict, key: str, parse):
    """`parse(data[key])`; a value of the wrong type or form names the field."""
    value = data[key]
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"field '{key}': {exc}") from exc


# -- stranded graphs ----------------------------------------------------------


@dataclass(frozen=True)
class StrandedGraph:
    """A contraction pattern: `vertices` groups of D nodes and a perfect
    matching of the nodes.  Node ids are 1-based: vertex v, slot c maps
    to (v-1)*D + c.  An optional orientation fixes a direction per
    strand; the default is (smaller id, larger id)."""

    D: int
    vertices: int
    strands: Tuple[Pair, ...]
    orientation: Optional[Tuple[Pair, ...]] = None

    def __post_init__(self):
        canon = tuple(sorted((min(p), max(p)) for p in self.strands))
        object.__setattr__(self, "strands", canon)
        n = self.node_count
        flat = [x for p in canon for x in p]
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("strands must form a perfect matching of the nodes")
        if self.orientation is not None:
            ori = tuple(self.orientation)
            if {frozenset(p) for p in ori} != {frozenset(p) for p in canon}:
                raise ValueError("orientation must orient exactly the strands")
            object.__setattr__(self, "orientation", ori)

    @property
    def node_count(self) -> int:
        return self.D * self.vertices

    def node(self, v: int, slot: int) -> int:
        return (v - 1) * self.D + slot

    def vertex_of(self, node: int) -> int:
        return (node - 1) // self.D + 1

    def slot_of(self, node: int) -> int:
        return (node - 1) % self.D + 1

    def oriented_strands(self) -> DirectedPairing:
        pairs = self.orientation if self.orientation is not None else self.strands
        return DirectedPairing(self.node_count, tuple(pairs))

    def with_orientation(self, pairs: Sequence[Pair]) -> "StrandedGraph":
        return StrandedGraph(self.D, self.vertices, self.strands, tuple(pairs))

    def is_connected(self) -> bool:
        """Connectivity of the vertex graph induced by the strands."""
        if self.vertices <= 1:
            return True
        parent = list(range(self.vertices + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.strands:
            ra, rb = find(self.vertex_of(a)), find(self.vertex_of(b))
            parent[ra] = rb
        roots = {find(v) for v in range(1, self.vertices + 1)}
        return len(roots) == 1

    def relabel_vertices(self, perm: Sequence[int]) -> "StrandedGraph":
        """Apply a permutation of vertices (0-based images) to the graph."""
        if sorted(perm) != list(range(self.vertices)):
            raise ValueError("not a vertex permutation")

        def move(node: int) -> int:
            v, c = self.vertex_of(node), self.slot_of(node)
            return perm[v - 1] * self.D + c

        strands = tuple((move(a), move(b)) for a, b in self.strands)
        return StrandedGraph(self.D, self.vertices, strands)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "vertices": self.vertices,
            "strands": [
                [[self.vertex_of(a), self.slot_of(a)], [self.vertex_of(b), self.slot_of(b)]]
                for a, b in self.strands
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StrandedGraph":
        D = _field(data, "D", int)
        nv = _field(data, "vertices", int)
        strands = _field(data, "strands", lambda pairs: tuple(
            ((int(va) - 1) * D + int(ia), (int(vb) - 1) * D + int(ib))
            for (va, ia), (vb, ib) in pairs
        ))
        return cls(D, nv, strands)


def disjoint_union_graphs(g1: StrandedGraph, g2: StrandedGraph) -> StrandedGraph:
    if g1.D != g2.D:
        raise ValueError("strand-count mismatch")
    off = g1.node_count
    strands = g1.strands + tuple((a + off, b + off) for a, b in g2.strands)
    return StrandedGraph(g1.D, g1.vertices + g2.vertices, strands)


# -- propagators --------------------------------------------------------------


@dataclass(frozen=True)
class PropagatorTerm:
    """One undirected pairing of the 2D propagator slots with its weight.

    Slots 1..D belong to the first tensor, D+1..2D to the second.  The
    weight is a polynomial in the loop variable z, evaluated at
    (-1)^b N per grading; a rational table is the degree-0 case.
    """

    pairing: Tuple[Pair, ...]
    weight: Poly

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(sorted((min(p), max(p)) for p in self.pairing)))
        if not isinstance(self.weight, Poly):
            object.__setattr__(self, "weight", Poly.const(self.weight))

    def oriented(self) -> DirectedPairing:
        return BrauerDiagram(len(self.pairing), self.pairing).oriented()


@dataclass(frozen=True)
class Propagator:
    D: int
    terms: Tuple[PropagatorTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if len(t.pairing) != self.D:
                raise ValueError("propagator term has wrong slot count")
        if not all(t.weight for t in self.terms):
            object.__setattr__(
                self, "terms", tuple(t for t in self.terms if t.weight)
            )

    @classmethod
    def identity(cls, D: int, weight=1) -> "Propagator":
        pairing = tuple((c, D + c) for c in range(1, D + 1))
        return cls(D, (PropagatorTerm(pairing, Poly.const(weight)),))

    @classmethod
    def from_brauer_element(cls, e: BrauerElement) -> "Propagator":
        terms = tuple(
            PropagatorTerm(d.pairs, coeff)
            for d, coeff in sorted(e.terms.items(), key=lambda t: t[0].pairs)
        )
        return cls(e.D, terms)

    def weights_at_grading(self, b: int) -> Tuple[Poly, ...]:
        """Term weights as polynomials in N: z evaluated at (-1)^b N."""
        return tuple(t.weight.reflected() if b else t.weight for t in self.terms)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "terms": [
                {"pairs": [list(p) for p in t.pairing], "gamma": t.weight.to_coeff_map()}
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Propagator":
        def weight(gamma) -> Poly:
            if isinstance(gamma, dict):
                return Poly.from_coeff_map(gamma)
            return Poly.const(Fraction(str(gamma)))

        def term(item: dict) -> PropagatorTerm:
            pairs = tuple((int(a), int(b)) for a, b in item["pairs"])
            return PropagatorTerm(pairs, _field(item, "gamma", weight))

        D = _field(data, "D", int)
        return cls(D, _field(data, "terms", lambda items: tuple(map(term, items))))


# -- two-colored graphs and amplitudes ----------------------------------------


@dataclass(frozen=True)
class TwoColoredGraph:
    """A stranded graph (color 1) completed by oriented propagator strands
    (color 0) and the weight polynomial collected from the edge terms."""

    graph: StrandedGraph
    vertex_pairing: Tuple[Pair, ...]
    color0: Tuple[Pair, ...]  # oriented strands over global node ids
    weight: Poly

    def color0_pairing(self) -> DirectedPairing:
        return DirectedPairing(self.graph.node_count, self.color0)

    def color1_pairing(self) -> DirectedPairing:
        return self.graph.oriented_strands()

    def reoriented_color0(self, flips: Iterable[int]) -> "TwoColoredGraph":
        flipped = self.color0_pairing().reorient(flips).pairs
        return TwoColoredGraph(self.graph, self.vertex_pairing, flipped, self.weight)


@dataclass(frozen=True)
class AmplitudePolynomial:
    """An exact polynomial in the formal dimension N with its grading."""

    poly: Poly
    b: int

    def format(self) -> str:
        return self.poly.format("N")

    def __eq__(self, other):
        if isinstance(other, AmplitudePolynomial):
            return self.poly == other.poly and self.b == other.b
        return self.poly == other


def _promote_vertex_pairing(m0: DirectedPairing, D: int) -> DirectedPairing:
    """Lift a pairing of vertices to the slot-respecting pairing of nodes."""
    pairs = []
    for (i, j) in m0.pairs:
        for c in range(1, D + 1):
            pairs.append(((i - 1) * D + c, (j - 1) * D + c))
    return DirectedPairing(2 * len(pairs), tuple(pairs))


@dataclass(frozen=True)
class InvariantNormalForm:
    """Sign-and-contractions form of an invariant for a reference pairing."""

    sign: int
    contractions: DirectedPairing


def invariant_sign_normal_form(S: StrandedGraph, ref: DirectedPairing) -> InvariantNormalForm:
    """Reduce an invariant to its grading sign and contraction list.

    `ref` pairs the 2p vertices (it encodes the order tensors are
    multiplied in); it is promoted slot-by-slot to a node pairing and
    compared against the oriented strands.  Evaluated invariants do not
    depend on the choice of `ref` or of the strand orientation, which is
    a tested property rather than a requirement on callers.
    """
    if ref.n != S.vertices:
        raise ValueError("reference pairing size does not match vertex count")
    promoted = _promote_vertex_pairing(ref, S.D)
    strands = S.oriented_strands()
    return InvariantNormalForm(sign=pairing_sign(promoted, strands), contractions=strands)


def _placed(D: int, pairs: Iterable[Pair], i: int, j: int) -> Iterator[Pair]:
    """Propagator slot pairs on the nodes of the edge (i, j): slots 1..D
    land on vertex i and D+1..2D on vertex j."""
    for pair in pairs:
        yield tuple((i - 1) * D + x if x <= D else (j - 1) * D + x - D for x in pair)


def _completions(
    S: StrandedGraph, C: Propagator
) -> Iterator[Tuple[Tuple[Pair, ...], Tuple[int, ...], Tuple[Pair, ...]]]:
    """(vertex pairing, term choice, oriented color-0 strands) per completion.

    One completion per vertex pairing of `all_pairings`, given as
    (smaller, larger) pairs in sorted order, and per choice of a
    propagator term for each of its edges.  For an edge (i, j), slots
    1..D of the term land on vertex i and D+1..2D on vertex j.
    """
    D = S.D
    oriented_terms = [t.oriented().pairs for t in C.terms]
    for matching in all_pairings(S.vertices):
        placed = [
            [tuple(_placed(D, term, i, j)) for term in oriented_terms]
            for i, j in matching
        ]
        for choice in itertools.product(range(len(oriented_terms)), repeat=len(matching)):
            color0 = tuple(p for edge, t in zip(placed, choice) for p in edge[t])
            yield matching, choice, color0


def wick_expand(S: StrandedGraph, C: Propagator, b: int) -> Tuple[TwoColoredGraph, ...]:
    """All 2-colored completions of S with their collected weights.

    One graph per choice of a vertex pairing and of a propagator term
    for each of its edges; the graph weight is the product of the chosen
    term weights, read at the loop weight of grading b.  This is the
    per-graph reference for `gaussian_expectation`, which only counts.
    """
    if C.D != S.D:
        raise ValueError("propagator strand count does not match the graph")
    if S.vertices % 2 != 0 or S.vertices == 0:
        return ()
    weights = C.weights_at_grading(b)
    out = []
    for matching, choice, color0 in _completions(S, C):
        weight = math.prod((weights[t] for t in choice), start=Poly.const(1))
        out.append(TwoColoredGraph(S, matching, color0, weight))
    return tuple(out)


def count_faces(G: TwoColoredGraph) -> Tuple[int, int, int]:
    """(total, even, odd) face counts of the alternating-color cycles.

    The total is orientation-independent; the even/odd split depends on
    the recorded orientations, but only the total enters the amplitude.
    """
    faces = face_decomposition(G.color0_pairing(), G.color1_pairing())
    return (faces.total, faces.even_count, faces.odd_count)


def graph_amplitude(G: TwoColoredGraph, b: int) -> AmplitudePolynomial:
    """weight * ((-1)^b N)^faces, assembled from the two parity factors.

    The grading sign of the color-0 against color-1 pairing contributes
    (-1)^(b * even faces) and the contraction values contribute
    (-1)^(b * odd faces) N^faces; their product depends only on the
    total face count.
    """
    total, even, odd = count_faces(G)
    sign = Fraction(-1 if (b * (even + odd)) % 2 else 1)
    return AmplitudePolynomial(G.weight * sign * Poly.monomial(total), b)


def _add_product(acc: List[int], p: Sequence[int], q: Sequence[int]) -> None:
    """acc += p * q on integer coefficient lists, growing acc."""
    need = len(p) + len(q) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for k, d in enumerate(q):
        if d:
            for i, c in enumerate(p, k):
                acc[i] += c * d


def _wick_fold(S: StrandedGraph, C: Propagator) -> Poly:
    """The Wick sum of S as a polynomial in the loop weight z.

    Every completion with F faces and chosen terms t contributes
    z^F * prod(w_t(z)).  Vertices are paired one edge at a time in the
    order of `_completions`: the smallest unpaired vertex with each later
    one, and each term per edge.  A state is the list of unpaired
    vertices and the partner map on the open nodes, those of unpaired
    vertices: each open node ends an alternating path of the strands
    placed so far, and the map sends it to the other end.  A color-0
    strand (a, b) closes a face when b is a's partner and otherwise joins
    the partners of a and b.  Completions that reach the same state merge
    there into one z-polynomial of integer numerators over den^edges,
    den being the common denominator of the term weights.  The empty
    graph gives 1; an odd number of vertices gives 0.
    """
    if S.vertices == 0:
        return Poly.const(1)
    if C.D != S.D:
        raise ValueError("propagator strand count does not match the graph")
    if S.vertices % 2 != 0:
        return Poly()
    D, n = S.D, S.node_count
    den = math.lcm(*(c.denominator for t in C.terms for c in t.weight.coeffs))
    numerators = [[int(c * den) for c in t.weight.coeffs] for t in C.terms]
    step_len = D + max(map(len, numerators), default=0)  # an edge closes at most D faces
    start = [0] * (n + 1)
    for a, b in S.strands:
        start[a], start[b] = b, a
    placed = {
        (i, j): [list(_placed(D, t.pairing, i, j)) for t in C.terms]
        for i, j in itertools.combinations(range(1, S.vertices + 1), 2)
    }
    states = {(tuple(range(1, S.vertices + 1)), tuple(start)): [1]}
    for _ in range(S.vertices // 2):
        merged: dict = {}
        for (unpaired, key), value in states.items():
            i, later = unpaired[0], unpaired[1:]
            moves: dict = {}  # next state -> sum of z^faces * numerator
            for j in later:
                rest = tuple(v for v in later if v != j)
                for strands, w in zip(placed[i, j], numerators):
                    partner = list(key)
                    faces = 0
                    for a, b in strands:
                        pa, pb = partner[a], partner[b]
                        if pa == b:
                            faces += 1
                        else:
                            partner[pa], partner[pb] = pb, pa
                        partner[a] = partner[b] = 0
                    nxt = (rest, tuple(partner))
                    step = moves.get(nxt)
                    if step is None:
                        step = moves[nxt] = [0] * step_len
                    for k, c in enumerate(w, faces):
                        step[k] += c
            for nxt, step in moves.items():
                _add_product(merged.setdefault(nxt, []), value, step)
        states = merged
    scale = den ** (S.vertices // 2)
    return Poly(Fraction(c, scale) for c in states.get(((), (0,) * (n + 1)), []))


def gaussian_expectation(S: StrandedGraph, C: Propagator, b: int) -> AmplitudePolynomial:
    """Sum of graph amplitudes over the full Wick expansion of S.

    A completion with F faces and chosen term weights w contributes
    prod(w(z)) * z^F at the loop weight z = (-1)^b N, so the whole sum is
    one z-polynomial, built by `_wick_fold` without forming any graph, and
    read at z = N for b=0 and z = -N for b=1.  S may be disconnected (a
    product of invariants is one disconnected invariant).  The empty
    graph has expectation 1; an odd number of vertices gives 0.
    """
    z = _wick_fold(S, C)
    return AmplitudePolynomial(z.reflected() if b else z, b)


@dataclass(frozen=True)
class DualityReport:
    equal: bool
    orthogonal: Poly      # expectation at b=0, polynomial in N
    symplectic: Poly      # expectation at b=1, polynomial in N


def duality_check(S: StrandedGraph, C: Propagator) -> DualityReport:
    """Exact check that the b=1 expectation is the b=0 one with N -> -N.

    Both sides use the same propagator table and one `_wick_fold`; the
    z-polynomial is read at the loop weight of each grading, so any
    z-dependence in the weights is re-read there too.  With one
    z-polynomial behind both sides the equality holds for every table of
    z-polynomial weights; `oracle-check` is the independent check of a
    grading's value.
    """
    z = _wick_fold(S, C)
    e0, e1 = z, z.reflected()
    return DualityReport(equal=(e1 == e0.reflected()), orthogonal=e0, symplectic=e1)


# -- models and perturbative expansion ----------------------------------------


@dataclass(frozen=True)
class Interaction:
    name: str
    graph: StrandedGraph

    def __post_init__(self):
        if not self.graph.is_connected():
            raise ValueError(f"interaction {self.name!r} must be connected")
        if self.graph.node_count <= 2:
            raise ValueError(f"interaction {self.name!r} must have more than 2 nodes")


@dataclass(frozen=True)
class ModelSpec:
    """A graded tensor model: grading, propagator and named interactions."""

    D: int
    b: int
    propagator: Propagator
    interactions: Tuple[Interaction, ...]

    def __post_init__(self):
        if self.propagator.D != self.D:
            raise ValueError("propagator strand count does not match the model")
        for it in self.interactions:
            if it.graph.D != self.D:
                raise ValueError(f"interaction {it.name!r} strand count mismatch")


@dataclass(frozen=True)
class ExpansionTerm:
    """One multiset of interaction insertions with its exact weight.

    `couplings` maps names to multiplicities p; `coefficient` is the
    product over insertions of (1/p!) (D/|nodes|)^p; the symbolic
    product of coupling constants carries the rest.
    """

    couplings: Tuple[Tuple[str, int], ...]
    coefficient: Fraction
    amplitude: AmplitudePolynomial


def perturbative_expansion(model: ModelSpec, order: int) -> Tuple[ExpansionTerm, ...]:
    """All terms with at most `order` interaction insertions.

    Each term is the Gaussian expectation of the disjoint union of its
    insertions, times the exact coefficient; coupling constants stay
    symbolic as the multiset of names.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    names = [it.name for it in model.interactions]
    out = []
    for total in range(order + 1):
        for split in _compositions(total, len(names)):
            union = StrandedGraph(model.D, 0, ())
            coeff = Fraction(1)
            couplings = []
            for it, p in zip(model.interactions, split):
                if p == 0:
                    continue
                couplings.append((it.name, p))
                per = Fraction(model.D, it.graph.node_count)
                coeff *= per**p / Fraction(math.factorial(p))
                for _ in range(p):
                    union = disjoint_union_graphs(union, it.graph)
            amp = gaussian_expectation(union, model.propagator, model.b)
            out.append(ExpansionTerm(tuple(couplings), coeff, amp))
    return tuple(out)


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- enumeration of invariants -------------------------------------------------


def _is_least(strands: Tuple[Pair, ...], D: int, vertices: int, slot_symmetry: bool) -> bool:
    """True when no relabeling makes the sorted strand tuple smaller.

    Relabelings permute the vertices and, with `slot_symmetry`, the D
    slots of every vertex independently.
    """
    slot_perms = list(itertools.permutations(range(D))) if slot_symmetry else [tuple(range(D))]
    for vperm in itertools.permutations(range(vertices)):
        for slot_choice in itertools.product(slot_perms, repeat=vertices):
            move = [0] + [vperm[v] * D + c + 1 for v in range(vertices) for c in slot_choice[v]]
            cand = tuple(sorted((min(move[a], move[b]), max(move[a], move[b])) for a, b in strands))
            if cand < strands:
                return False
    return True


def enumerate_invariants(
    D: int, vertices: int, slot_symmetry: bool = False
) -> Tuple[StrandedGraph, ...]:
    """Connected stranded graphs on the given vertices, one per class.

    Classes are taken under vertex relabeling; with `slot_symmetry` the
    D node slots of every vertex may additionally be permuted
    independently (appropriate when the propagator is fully symmetric).
    Each class is given by its least strand set: a connected matching is
    kept when no relabeling makes it smaller.  `all_pairings` yields the
    matchings in increasing order, so the output is sorted.
    """
    if vertices < 1:
        raise ValueError("need at least one vertex")
    n = D * vertices
    if n % 2 != 0:
        return ()
    graphs = (StrandedGraph(D, vertices, matching) for matching in all_pairings(n))
    return tuple(
        g
        for g in graphs
        if g.is_connected() and _is_least(g.strands, D, vertices, slot_symmetry)
    )
