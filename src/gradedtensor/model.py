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
    canonical_matching,
    double_factorial,
    face_decomposition,
    pairing_sign,
)
from .errors import check_cap
from .polynomial import Poly
from .young import partitions

Pair = Tuple[int, int]

ENUMERATE_TABLE_CAP = 100_000  # vertex relabelings enumerate_invariants compares a graph with
ENUMERATE_CLASS_CAP = 2_000_000  # orbit-least matchings the search without slot symmetries reaches
WEIGHT_DEGREE_CAP = 10_000  # z-degree of a propagator weight read from JSON


def _field(data: dict, key: str, parse):
    """`parse(data[key])`; a value of the wrong type or form names the field."""
    value = data[key]
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"field '{key}': {exc}") from exc


def _integer(value) -> int:
    """An integer read from JSON: a boolean or a number with a fractional part is an error."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _size(value) -> int:
    """A count read from JSON: an integer that is not negative."""
    n = _integer(value)
    if n < 0:
        raise ValueError(f"must not be negative, got {n}")
    return n


# -- stranded graphs ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
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
        if self.D < 0 or self.vertices < 0:
            raise ValueError("D and vertices must not be negative")
        canon = canonical_matching(self.strands, self.node_count)
        if canon is None:
            raise ValueError("strands must form a perfect matching of the nodes")
        object.__setattr__(self, "strands", canon)
        if self.orientation is not None:
            ori = tuple(self.orientation)
            if {frozenset(p) for p in ori} != {frozenset(p) for p in canon}:
                raise ValueError("orientation must orient exactly the strands")
            object.__setattr__(self, "orientation", ori)

    @property
    def node_count(self) -> int:
        return self.D * self.vertices

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
        D = self.D
        vertex_of = [0] + [(x - 1) // D for x in range(1, self.node_count + 1)]
        return _connected(self.vertices, self.strands, vertex_of)

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
        D = self.D
        return {
            "D": D,
            "vertices": self.vertices,
            "strands": [
                [[(x - 1) // D + 1, (x - 1) % D + 1] for x in pair] for pair in self.strands
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StrandedGraph":
        D = _field(data, "D", _size)
        nv = _field(data, "vertices", _size)

        def node(end) -> int:
            v, c = map(_integer, end)
            if not (1 <= v <= nv and 1 <= c <= D):
                raise ValueError(f"endpoint [{v}, {c}] needs vertex 1..{nv} and slot 1..{D}")
            return (v - 1) * D + c

        strands = _field(data, "strands", lambda pairs: tuple((node(a), node(b)) for a, b in pairs))
        return cls(D, nv, strands)


def _connected(vertices: int, strands: Iterable[Pair], vertex_of: Sequence[int]) -> bool:
    """Whether the strands join all the vertices 0..vertices-1, where
    vertex_of[x] is the vertex of node x: a union-find that counts roots."""
    parent = list(range(vertices))
    for a, b in strands:
        ra, rb = vertex_of[a], vertex_of[b]
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        parent[ra] = rb
    return sum(parent[v] == v for v in range(vertices)) <= 1


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
        # BrauerDiagram checks the pairing is a perfect matching of 1..2D and sorts it
        object.__setattr__(self, "pairing", BrauerDiagram(len(self.pairing), self.pairing).pairs)
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
        object.__setattr__(self, "terms", tuple(t for t in self.terms if t.weight))

    @classmethod
    def identity(cls, D: int, weight=1) -> "Propagator":
        pairing = tuple((c, D + c) for c in range(1, D + 1))
        return cls(D, (PropagatorTerm(pairing, weight),))

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
                # the dense coefficient list, and the fold's work, grow with the degree
                top = max(map(int, gamma), default=0)
                check_cap((top,), WEIGHT_DEGREE_CAP, "factors of z in a propagator weight's top term")
                return Poly.from_coeff_map(gamma)
            return Poly.const(Fraction(str(gamma)))

        def term(item: dict) -> PropagatorTerm:
            pairs = tuple((_integer(a), _integer(b)) for a, b in item["pairs"])
            return PropagatorTerm(pairs, _field(item, "gamma", weight))

        D = _field(data, "D", _integer)
        return _field(data, "terms", lambda items: cls(D, tuple(map(term, items))))


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


def _completions(
    S: StrandedGraph, C: Propagator
) -> Iterator[Tuple[Tuple[Pair, ...], Tuple[int, ...], Tuple[Pair, ...]]]:
    """(vertex pairing, term choice, oriented color-0 strands) per completion.

    One completion per vertex pairing of `all_pairings`, given as
    (smaller, larger) pairs in sorted order, and per choice of a
    propagator term for each edge, its local slots read as i's D nodes,
    then j's.
    """
    D, terms = S.D, [[(a - 1, b - 1) for a, b in t.oriented().pairs] for t in C.terms]
    for matching in all_pairings(S.vertices):
        placed = []
        for i, j in matching:
            nodes = [*range((i - 1) * D + 1, i * D + 1), *range((j - 1) * D + 1, j * D + 1)]
            placed.append([tuple((nodes[x], nodes[y]) for x, y in term) for term in terms])
        for choice in itertools.product(range(len(terms)), repeat=len(matching)):
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


def graph_amplitude(G: TwoColoredGraph, b: int) -> Poly:
    """weight * ((-1)^b N)^faces, assembled from the two parity factors.

    The grading sign of the color-0 against color-1 pairing contributes
    (-1)^(b * even faces) and the contraction values contribute
    (-1)^(b * odd faces) N^faces; their product depends only on the
    total face count.
    """
    total, even, odd = count_faces(G)
    sign = Fraction(-1 if (b * (even + odd)) % 2 else 1)
    return G.weight * sign * Poly.monomial(total)


def _pair_level(
    states: dict, k: int, D: int, terms: List[Tuple[List[Pair], int]], bits: int
) -> dict:
    """One level of `_wick_fold`, k > 2 vertices left: positions 0..D-1 (the
    first vertex) pair with each later vertex j by each (local strands,
    packed weight) term, and the positions kept are renumbered from 0."""
    merged: dict = {}
    n = k * D
    for j in range(1, k):
        nodes = [*range(D), *range(j * D, (j + 1) * D)]
        kept = [*range(D, j * D), *range((j + 1) * D, n)]
        renum = [p - D if p < j * D else p - 2 * D for p in range(n)]  # read at kept ones only
        for strands, w in terms:
            placed = [(nodes[x], nodes[y]) for x, y in strands]
            for key, value in states.items():
                partner = list(key)
                faces = 0
                for a, b in placed:
                    pa, pb = partner[a], partner[b]
                    if pa == b:
                        faces += 1
                    else:
                        partner[pa], partner[pb] = pb, pa
                nxt = tuple([renum[partner[p]] for p in kept])
                merged[nxt] = merged.get(nxt, 0) + (value * w << faces * bits)
    return merged


def _wick_fold(S: StrandedGraph, C: Propagator) -> Poly:
    """The Wick sum of S as a polynomial in the loop weight z.

    A completion with F faces and terms t adds z^F * prod(w_t(z)); edges are
    placed in the order of `_completions`.  A state maps each open node of
    the vertices left, by position (vertex rank, then slot), to the position
    at the other end of its alternating path.  A color-0 strand (a, b)
    closes a face when b is a's partner, else joins the partners of a and
    b.  Equal states merge, across vertex sets too: at most (kD-1)!! enter
    the `_pair_level` with k vertices left.  At the last edge each state
    adds its value times one sum over the terms.  The empty graph gives 1;
    an odd number of vertices gives 0.

    A state carries one int, its z-polynomial of integer numerators over
    den^(v/2) (den the lcm of the weights' denominators) at z = 2^bits;
    a term adds value * w_t(2^bits) << F*bits.  Bound: each coefficient
    of the result is at most (v-1)!! * W^(v/2) in size, W the sum of all
    |numerator_tk|: the sum of |coefficients| is subadditive, kept by
    z^F and submultiplicative, so it is at most W^(v/2) per vertex
    pairing.  With bits = bound.bit_length() + 1 each coefficient lies in
    [-2^(bits-1), 2^(bits-1)), so the final int's signed base-2^bits
    digits are the coefficients.
    """
    if S.vertices == 0:
        return Poly.const(1)
    if C.D != S.D:
        raise ValueError("propagator strand count does not match the graph")
    if S.vertices % 2 != 0:
        return Poly()
    edges = S.vertices // 2
    den = math.lcm(*(c.denominator for t in C.terms for c in t.weight.coeffs))
    numerators = [[int(c * den) for c in t.weight.coeffs] for t in C.terms]
    bound = double_factorial(S.vertices - 1) * sum(abs(c) for w in numerators for c in w) ** edges
    bits = bound.bit_length() + 1
    terms = [
        ([(a - 1, b - 1) for a, b in t.pairing], sum(c << k * bits for k, c in enumerate(w)))
        for t, w in zip(C.terms, numerators)
    ]
    start = [0] * S.node_count
    for a, b in S.strands:
        start[a - 1], start[b - 1] = b - 1, a - 1
    states = {tuple(start): 1}
    for k in range(S.vertices, 2, -2):
        states = _pair_level(states, k, S.D, terms, bits)
    packed, digits, half = 0, [], 1 << (bits - 1)
    for key, value in states.items():  # a matching of the last two vertices' 2D positions
        closed = 0
        for strands, w in terms:
            partner, faces = list(key), 0
            for a, b in strands:
                pa, pb = partner[a], partner[b]
                if pa == b:
                    faces += 1
                else:
                    partner[pa], partner[pb] = pb, pa
            closed += w << faces * bits
        packed += value * closed
    while packed:
        digits.append(((packed + half) & ((1 << bits) - 1)) - half)
        packed = (packed - digits[-1]) >> bits
    return Poly(Fraction(c, den**edges) for c in digits)


def gaussian_expectation(S: StrandedGraph, C: Propagator, b: int) -> Poly:
    """Sum of graph amplitudes over the full Wick expansion of S.

    A completion with F faces and chosen term weights w contributes
    prod(w(z)) * z^F at the loop weight z = (-1)^b N, so the whole sum is
    one z-polynomial, folded by `_wick_fold` into one int with no graph
    formed (its value at z = 2^bits, bits past the bound on its
    coefficients), and read at z = N for b=0 and z = -N for b=1.  S may be
    disconnected (a product of invariants is one disconnected invariant).
    The empty graph has expectation 1; an odd number of vertices gives 0.
    """
    z = _wick_fold(S, C)
    return z.reflected() if b else z


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
        names = set()
        for it in self.interactions:
            if it.graph.D != self.D:
                raise ValueError(f"interaction {it.name!r} strand count mismatch")
            if it.name in names:
                raise ValueError(f"duplicate interaction name {it.name!r}")
            names.add(it.name)


@dataclass(frozen=True)
class ExpansionTerm:
    """One multiset of interaction insertions with its exact weight.

    `couplings` maps names to multiplicities p; `coefficient` is the
    product over insertions of (1/p!) (D/|nodes|)^p; the symbolic
    product of coupling constants carries the rest.
    """

    couplings: Tuple[Tuple[str, int], ...]
    coefficient: Fraction
    amplitude: Poly


def perturbative_expansion(model: ModelSpec, order: int) -> Tuple[ExpansionTerm, ...]:
    """All terms with at most `order` interaction insertions.

    Each term is the Gaussian expectation of the disjoint union of its
    insertions, times the exact coefficient; coupling constants stay
    symbolic as the multiset of names.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    indices = range(len(model.interactions))
    out = []
    for total in range(order + 1):
        # each multiset of `total` insertions once; reversed, their splits come in lexicographic order
        for picks in reversed(list(itertools.combinations_with_replacement(indices, total))):
            union = StrandedGraph(model.D, 0, ())
            coeff = Fraction(1)
            couplings = []
            for it, p in zip(model.interactions, map(picks.count, indices)):
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


# -- enumeration of invariants -------------------------------------------------


Relabeling = Tuple[List[int], List[int], int]  # (move, inverse) node lists, resume position
Matrix = List[List[int]]  # m[u][u] loops at vertex u, m[u][w] strands between u and w


def _relabelings(D: int, vertices: int) -> List[Relabeling]:
    """Every vertex relabeling but the identity, as (move, inverse, 1):
    node lists and the position `_orderly_search` starts comparing at.

    A relabeling moves each node to the same slot of its vertex's image.
    move[0] is a sentinel above every node id: an open node (partner 0)
    moves to it.
    """
    n = D * vertices
    identity = [n + 1] + list(range(1, n + 1))
    table = []
    for vperm in itertools.permutations(range(vertices)):
        move = [n + 1] + [vperm[v] * D + c for v in range(vertices) for c in range(1, D + 1)]
        if move == identity:
            continue
        inverse = [0] * (n + 1)
        for x in range(1, n + 1):
            inverse[move[x]] = x
        table.append((move, inverse, 1))
    return table


def _least_fill(D: int, m: Matrix) -> Tuple[Pair, ...]:
    """The least sorted strand tuple of the matchings with multiplicities m.

    Nodes are walked in order, and each open node of vertex u is paired
    with the least open slot of the least vertex w >= u that still has an
    unused strand to u, a loop being a strand of u to itself.  The slots
    of a vertex are interchangeable, so the least partner always leaves a
    completion, and the walk reads the least partner list, which orders
    sorted strand tuples (see `_orderly_search`).  The open nodes of u are its
    slots past the strands from earlier vertices, each the smaller end of
    its strand, so the strands come out sorted.
    """
    taken = [0] * len(m)  # slots of each vertex paired from earlier vertices
    strands = []
    for u, row in enumerate(m):
        x = u * D + taken[u]  # the last node of u paired so far
        for _ in range(row[u]):
            strands.append((x + 1, x + 2))
            x += 2
        for w in range(u + 1, len(m)):
            for _ in range(row[w]):
                x += 1
                taken[w] += 1
                strands.append((x, w * D + taken[w]))
    return tuple(strands)


def _relabeling_reads_greater(m: Matrix) -> bool:
    """Whether a vertex relabeling makes the upper triangle of m, read row
    by row, lexicographically greater.

    Within a cell, a run of columns that agree on all earlier rows, m must
    not increase along a row, as `_multigraphs` builds it.  Positions
    take vertices in order.  A cell (start, stop, members) is the
    positions start..stop-1, whose earlier rows agree, and the vertices
    that read those rows alike; position i takes a vertex a of its cell.
    With m[a][a] = m[i][i], a reads row i at its greatest with each later
    cell's members in decreasing order of m[a][x]: greater than m's row
    ends the search, smaller drops a, and equal splits every cell by the
    row's values, positions and members alike, for row i + 1.  At most
    v! relabelings reach the last row.
    """
    v = len(m)

    def search(i: int, cells: List[Tuple[int, int, List[int]]]) -> bool:
        if i == v:
            return False
        row = m[i]
        (_, end, first), later = cells[0], cells[1:]
        for a in first:
            if m[a][a] != row[i]:
                if m[a][a] > row[i]:
                    return True
                continue
            split = []
            for start, stop, members in [(i + 1, end, [x for x in first if x != a])] + later:
                values = sorted((m[a][x] for x in members), reverse=True)
                if values != row[start:stop]:
                    if values > row[start:stop]:
                        return True
                    break
                while start < stop:
                    value, run = row[start], start + 1
                    while run < stop and row[run] == value:
                        run += 1
                    split.append((start, run, [x for x in members if m[a][x] == value]))
                    start = run
            else:
                if search(i + 1, split):
                    return True
        return False

    return search(0, [(0, v, list(range(v)))])


def _multigraphs(D: int, vertices: int) -> List[Matrix]:
    """Connected D-regular multigraphs with loops on `vertices` vertices,
    one per class under vertex relabeling, as multiplicity matrices.

    A row sums to D with its loops counted twice.  A class is given by its
    relabeling whose upper triangle, read row by row, is lexicographically
    greatest, and the triangle is filled in that order, each entry up to
    what the free slots allow.  Within a cell, a run of
    columns w > u that agree on rows 0..u-1, row u does not increase,
    since swapping two of them would read greater.  So the vertices that
    rows 0..u join to vertex 0 are 0..r for some r: a new neighbour takes
    the first column of the all-zero cell past r.  The matrix is then
    connected when every complete row u < v - 1 leaves a strand to some
    vertex past u, and a complete matrix is kept when no relabeling reads
    greater (`_relabeling_reads_greater`).
    """
    m = [[0] * vertices for _ in range(vertices)]
    free = [D] * vertices  # slots of each vertex not yet given a strand
    tied = [True] * vertices  # tied[w]: columns w - 1 and w agree on the rows filled
    out: List[Matrix] = []

    def fill(u: int, w: int) -> None:
        if w == vertices:  # row u is complete
            if free[u]:
                return
            if u + 1 == vertices:
                if not _relabeling_reads_greater(m):
                    out.append([row[:] for row in m])
                return
            if all(free[x] == D for x in range(u + 1, vertices)):
                return  # no strand leaves vertices 0..u
            kept = tied[:]
            for x in range(u + 2, vertices):
                tied[x] = tied[x] and m[u][x] == m[u][x - 1]
            fill(u + 1, u + 1)
            tied[:] = kept
            return
        if w == u:
            for loops in range(free[u] // 2, -1, -1):
                m[u][u] = loops
                free[u] -= 2 * loops
                fill(u, u + 1)
                free[u] += 2 * loops
            return
        top = min(free[u], free[w], m[u][w - 1] if w > u + 1 and tied[w] else D)
        low = max(free[u] - sum(free[w + 1:]), 0)
        for k in range(top, low - 1, -1):
            m[u][w] = m[w][u] = k
            free[u] -= k
            free[w] -= k
            fill(u, w + 1)
            free[u] += k
            free[w] += k
        m[u][w] = m[w][u] = 0

    fill(0, 0)
    return out


def _some_graph_connects(D: int, vertices: int) -> bool:
    """Whether some stranded graph on the given vertices is connected:
    D*v must be even, and with D = 1 only the two-vertex dipole is.
    Raises `ValueError` for D < 1 or no vertex."""
    if D < 1:
        raise ValueError(f"D must be at least 1, got {D}")
    if vertices < 1:
        raise ValueError("need at least one vertex")
    return D * vertices % 2 == 0 and (D > 1 or vertices <= 2)


def _fixed_matchings(m: int, length: int) -> int:
    """The perfect matchings of m node cycles of one length that the
    permutation of the cycles maps to themselves.

    A fixed matching pairs a cycle's nodes with those of one other cycle,
    in `length` ways, or, for even length only, with its own nodes half a
    turn on, in one way.
    """
    if length % 2:
        return double_factorial(m - 1) * length ** (m // 2) if m % 2 == 0 else 0
    return sum(
        math.comb(m, 2 * j) * double_factorial(2 * j - 1) * length**j for j in range(m // 2 + 1)
    )


def count_invariants(D: int, vertices: int) -> int:
    """The number of connected classes without slot symmetries, the
    length of `invariant_strands(D, vertices)`, in closed form.

    Burnside's lemma gives a_k, the classes on k <= v vertices, connected
    or not: the mean over the k! vertex relabelings of the matchings each
    fixes, summed by cycle type (`young.partitions`), with k!/z_mu
    relabelings of type mu.  A vertex cycle of length l moves the nodes of
    its vertices in D node cycles of length l, and the fixed matchings
    multiply over the lengths (`_fixed_matchings`).  A graph is the
    multiset of its components, so sum_k a_k x^k = prod_k (1 - x^k)^(-c_k)
    with c_k the connected classes on k vertices (the Euler transform;
    Harary & Palmer, Graphical Enumeration, 1973; Ben Geloun & Ramgoolam,
    "Counting tensor model observables and branched covers of the
    2-sphere", 2013).  With b_n = sum over d | n of d c_d, the transform
    reads n a_n = sum_{k=1}^{n} b_k a_{n-k}, which is solved for b_n and
    then c_n, all in integers.

    Odd D*v and D = 1 with v > 2 give 0 at once, as in the search
    (`_some_graph_connects`); otherwise the sum runs over the partitions
    of each k <= v, so it is meant for the v that the relabeling cap lets
    the search reach.
    """
    if not _some_graph_connects(D, vertices):
        return 0
    a = [1]  # a[k]: classes on k vertices, connected or not
    for k in range(1, vertices + 1):
        fixed = 0  # matchings fixed by each of the k! relabelings, summed
        for mu in partitions(k):
            relabelings = math.factorial(k)
            product = 1
            for length in set(mu):
                cycles = mu.count(length)
                relabelings //= length**cycles * math.factorial(cycles)
                product *= _fixed_matchings(D * cycles, length)
            fixed += relabelings * product
        a.append(fixed // math.factorial(k))
    b = [0] * (vertices + 1)
    c = [0] * (vertices + 1)
    for k in range(1, vertices + 1):
        b[k] = k * a[k] - sum(b[j] * a[k - j] for j in range(1, k))
        c[k] = (b[k] - sum(d * c[d] for d in range(1, k) if k % d == 0)) // k
    return c[vertices]


def invariant_strands(
    D: int, vertices: int, slot_symmetry: bool = False
) -> Iterable[Tuple[Pair, ...]]:
    """Connected stranded graphs on the given vertices, one per class, as
    sorted strand tuples in increasing order.

    Classes are taken under vertex relabeling; with `slot_symmetry` the
    D node slots of every vertex may additionally be permuted
    independently (appropriate when the propagator is fully symmetric).
    Each class is given by its least strand tuple: pairs (a, b) with
    a < b, sorted, a perfect matching of 1..D*vertices.

    The arguments and both caps are checked when this is called, before
    any class is found, so a refused run has not begun its output.  Both
    searches compare a graph with its images under the v! vertex
    relabelings; above `ENUMERATE_TABLE_CAP` this raises
    `CapExceededError`.  Without `slot_symmetry` an orbit holds at most
    v! matchings, so the search reaches at least (Dv-1)!!/v! orbit-least
    complete matchings; above `ENUMERATE_CLASS_CAP` it raises
    `CapExceededError` too.  Both are `errors.check_cap`, (Dv-1)!!
    taken from its largest factor down.

    Without `slot_symmetry` the classes come from one generator, an
    orderly search run as a loop over an explicit stack of prefixes with
    the relabeling check inline (`_orderly_search`); each class is yielded
    as the search closes it, so the caller holds one class at a time, and
    `count_invariants` counts them beforehand.

    With `slot_symmetry` a class is fixed by its multiplicity matrix, a
    connected D-regular multigraph with loops on which only the vertex
    relabelings act (`_multigraphs`).  Its least strand tuple is the
    greedy fill (`_least_fill`) of the relabeling whose upper triangle,
    read row by row, is greatest: at the first entry (u, w) where two
    matrices differ, the next node of u is paired into w in the greater
    one and into a later vertex in the other.  `_multigraphs` lists the
    matrices greatest first, so their fills come as one increasing list.
    """
    if not _some_graph_connects(D, vertices):
        return ()
    size = check_cap(range(2, vertices + 1), ENUMERATE_TABLE_CAP, "relabelings for enumerate")
    if slot_symmetry:
        return [_least_fill(D, m) for m in _multigraphs(D, vertices)]
    # (Dv-1)!!/v! > cap exactly when (Dv-1)!! > (cap + 1) * v! - 1
    check_cap(
        range(D * vertices - 1, 1, -2),
        (ENUMERATE_CLASS_CAP + 1) * size - 1,
        f"matchings for enumerate, more than {ENUMERATE_CLASS_CAP} orbit-least matchings "
        f"in orbits of at most {size}",
    )
    return _orderly_search(D, vertices)


def _orderly_search(D: int, vertices: int) -> Iterator[Tuple[Pair, ...]]:
    """The least strand tuple of each connected class without slot
    symmetries, in increasing order, yielded as the search closes it.

    Matchings grow in the order of `all_pairings`, the smallest open node
    paired with each larger open node, so the k-th strand placed is the
    k-th of the sorted strand tuple and the output is sorted.  The search
    is one loop over an explicit stack with a frame per prefix length:
    [first, table, component, parts, last partner placed], the open node
    being paired, the relabelings still undecided on the prefix before it,
    a part label per vertex with the number of parts, and the partner of
    `first` tried last (`first` itself before any).  A frame whose partners
    are used up is popped, and the frame below it moves its own node on.

    Each new strand is checked against the relabelings of its frame's
    table, compiled once per call (`_relabelings`).  Comparing the
    relabeled partner of node y, move[partner[inverse[y]]], with
    partner[y] for y = 1, 2, ... compares the sorted strand tuples.  A
    relabeling that reads smaller at a closed node makes the prefix and
    all its completions smaller, so none of them is least and the strand
    is dropped.  One that reads larger is larger on every completion and
    leaves the table.  One that reads the sentinel, at a node the prefix
    leaves open, stays undecided.

    Each relabeling resumes at its stored position y, the first node not
    yet known to read equal.  Every node below y read equal on a shorter
    prefix, and an equal read compares two closed partners (the sentinel
    equals no node), which no extension of that prefix reopens; so the
    restart from node 1 would read equal up to y again.  A kept relabeling
    stores the node it stopped at: the one that read the sentinel, or the
    first open node.  One whose position did not move is kept as the same
    tuple.

    Connectivity is counted as strands are placed: a strand joining two
    parts relabels one of them in a new list.  A complete matching is
    connected when one part is left.
    """
    n = D * vertices
    vertex_of = [0] + [(x - 1) // D for x in range(1, n + 1)]
    partner = [0] * (n + 1)
    strands: List[Pair] = []
    stack = [[1, _relabelings(D, vertices), list(range(vertices)), vertices, 1]]
    while stack:
        frame = stack[-1]
        first, table, component, parts, other = frame
        if other != first:  # take back the strand placed last from this frame
            strands.pop()
            partner[first] = partner[other] = 0
        other += 1
        while other <= n and partner[other]:
            other += 1
        if other > n:
            stack.pop()
            continue
        frame[4] = other
        partner[first], partner[other] = other, first
        strands.append((first, other))
        following = first + 1
        while following <= n and partner[following]:
            following += 1
        kept = []
        for relabeling in table:
            move, inverse, y = relabeling
            start = y
            while y < following:
                q = move[partner[inverse[y]]]
                if q != partner[y]:
                    break
                y += 1
            else:  # equal on the whole prefix
                kept.append(relabeling if y == start else (move, inverse, y))
                continue
            if q < partner[y]:
                break
            if q > n:
                kept.append(relabeling if y == start else (move, inverse, y))
        else:  # no relabeling makes the prefix smaller
            # component[u] labels the part of vertex u that the prefix joins it to
            label, merged = component[vertex_of[first]], component[vertex_of[other]]
            if merged != label:
                component = [label if c == merged else c for c in component]
                parts -= 1
            if following <= n:
                stack.append([following, kept, component, parts, following])
            elif parts == 1:
                yield tuple(strands)


def enumerate_invariants(
    D: int, vertices: int, slot_symmetry: bool = False
) -> Tuple[StrandedGraph, ...]:
    """Connected stranded graphs on the given vertices, one per class, in
    increasing order of their least strand tuples: `invariant_strands`,
    with its checks and caps, each class built as a `StrandedGraph`.

    This holds every class at once; the `enumerate` command writes the
    strand tuples as they come and builds no graph.
    """
    return tuple(StrandedGraph(D, vertices, s) for s in invariant_strands(D, vertices, slot_symmetry))
