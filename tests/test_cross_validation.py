"""Randomized cross-checks of the stranded-graph pipeline against the
brute-force oracle, over propagator tables the acceptance grid does not
sample.  Everything here is an exact rational equality."""

import random
from fractions import Fraction

import pytest

from gradedtensor.model import (
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    duality_check,
    gaussian_expectation,
)
from gradedtensor.oracle import ExplicitCovariance, numeric_invariant_expectation
from gradedtensor.polynomial import Poly
from gradedtensor.representation import GradedForm, irreducible_projector
from gradedtensor.young import YoungDiagram, partitions
from conftest import rand_connected_graph


def block_symmetric_pairings(D):
    """Slot pairings invariant under swapping the two tensor blocks."""
    from gradedtensor.combinatorics import all_pairings

    def swap(s):
        return s + D if s <= D else s - D

    out = []
    for matching in all_pairings(2 * D):
        key = frozenset(frozenset(p) for p in matching)
        swapped = frozenset(frozenset(swap(x) for x in p) for p in matching)
        if key == swapped:
            out.append(tuple(matching))
    return out


def random_symmetric_table(rng, D, max_terms=3):
    pool = block_symmetric_pairings(D)
    rng.shuffle(pool)
    terms = []
    for pairing in pool[:max_terms]:
        w = Fraction(rng.randint(-2, 3))
        if w:
            terms.append(PropagatorTerm(pairing, Poly.const(w)))
    if not terms:
        terms = [PropagatorTerm(pool[0], Poly.const(1))]
    return Propagator(D, tuple(terms))


def test_block_symmetric_tables_give_valid_covariances(rng):
    for D, N, b in [(2, 2, 0), (2, 3, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1)]:
        for _ in range(5):
            table = random_symmetric_table(rng, D)
            ExplicitCovariance.from_propagator(table, GradedForm(N, b))


@pytest.mark.parametrize("N,b", [(2, 0), (3, 0), (2, 1)])
def test_random_tables_pipeline_vs_oracle_d2(N, b):
    rng = random.Random(4000 + 10 * N + b)
    for _ in range(12):
        vertices = rng.choice((2, 4))
        g = rand_connected_graph(rng, 2, vertices)
        table = random_symmetric_table(rng, 2)
        pipeline = gaussian_expectation(g, table, b)(Fraction(N))
        assert numeric_invariant_expectation(g, table, N, b) == pipeline


def test_random_tables_pipeline_vs_oracle_fermionic():
    rng = random.Random(4242)
    for _ in range(8):
        g = rand_connected_graph(rng, 3, 2)
        table = random_symmetric_table(rng, 3)
        pipeline = gaussian_expectation(g, table, 1)(Fraction(2))
        assert numeric_invariant_expectation(g, table, 2, 1) == pipeline


def test_random_tables_pipeline_vs_oracle_d1_fermionic():
    # vector model with anticommuting components: N=2, D=1.  A connected
    # D=1 graph needs exactly 2 vertices; the 4-vertex instance is a
    # 4-point function of a disconnected invariant, which both routes
    # must handle identically.
    table = Propagator(1, (PropagatorTerm(((1, 2),), Poly.const(Fraction(3, 2))),))
    quadratic = StrandedGraph(1, 2, ((1, 2),))
    four_point = StrandedGraph(1, 4, ((1, 3), (2, 4)))
    for g in (quadratic, four_point):
        pipeline = gaussian_expectation(g, table, 1)(Fraction(2))
        assert numeric_invariant_expectation(g, table, 2, 1) == pipeline


def test_duality_on_random_tables(rng):
    for _ in range(20):
        D = rng.choice((2, 3))
        vertices = 2 if D == 3 else rng.choice((2, 4))
        g = rand_connected_graph(rng, D, vertices)
        table = random_symmetric_table(rng, D)
        assert duality_check(g, table).equal


def test_mixed_symmetry_projectors_are_idempotent():
    for d in (2, 3):
        for rows in partitions(d):
            for b in (0, 1):
                rep = irreducible_projector(YoungDiagram(rows), GradedForm(4, b))
                assert rep.idempotent, (rows, b)
                assert rep.trace == rep.rank == rep.projector.rank()


def test_pipeline_handles_disconnected_graphs_vs_oracle(rng):
    from gradedtensor.model import disjoint_union_graphs

    table = random_symmetric_table(rng, 2)
    g1 = rand_connected_graph(rng, 2, 2)
    g2 = rand_connected_graph(rng, 2, 2)
    union = disjoint_union_graphs(g1, g2)
    pipeline = gaussian_expectation(union, table, 0)(Fraction(3))
    assert numeric_invariant_expectation(union, table, 3, 0) == pipeline
