import ast
import functools
import hashlib
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtensor import oracle
from gradedtensor.cli import run
from gradedtensor.errors import CapExceededError
from gradedtensor.model import (
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    enumerate_invariants,
    gaussian_expectation,
    invariant_sign_normal_form,
)
from gradedtensor.combinatorics import DirectedPairing, pairing_sign
from gradedtensor.oracle import (
    ExplicitCovariance,
    ExteriorElement,
    _BerezinState,
    berezin_expectation,
    bosonic_moment,
    exterior_exp,
    numeric_invariant_expectation,
)
from gradedtensor.polynomial import Poly
from gradedtensor.representation import (
    GradedForm,
    decompose_projector_as_propagator,
    encode_index,
)
from gradedtensor.young import YoungDiagram

from conftest import rand_connected_graph, rand_stranded_graph
from test_cross_validation import block_symmetric_pairings, random_symmetric_table
from test_model import dipole, identity_plus_swap


def dense_covariance(N, D, b, matrix, den=1) -> ExplicitCovariance:
    """A covariance from a small dense matrix of ints or Fractions over den,
    written as integer rows over one common denominator."""
    common = math.lcm(*(Fraction(a).denominator for row in matrix for a in row))
    rows = [{y: int(a * common) for y, a in enumerate(row)} for row in matrix]
    return ExplicitCovariance(N, D, b, rows, den * common)


def one_dim_unit_covariance() -> ExplicitCovariance:
    return ExplicitCovariance(1, 1, 0, [{0: 1}])


def test_two_point_function_is_the_covariance():
    cov = ExplicitCovariance.from_propagator(identity_plus_swap(), GradedForm(2, 0))
    for x in range(4):
        for y in range(4):
            assert bosonic_moment(cov, [x, y]) == cov.entry(x, y)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
@pytest.mark.parametrize("N,b", [(2, 0), (2, 1), (3, 0), (4, 0), (4, 1)])
def test_covariance_entries_match_their_definition(D, N, b):
    # entry (x, y) = sum over terms of gamma(z0) * sign * prod of upper form
    # entries at the slot values, x on slots 1..D and y on D+1..2D
    rng = random.Random(1000 * D + 10 * N + b)
    form = GradedForm(N, b)
    z0 = form.z_value
    pairings = block_symmetric_pairings(D)
    terms = [PropagatorTerm(pairings[0], Poly((-z0, 1)))]  # z - z0 vanishes at z0
    for _ in range(3):
        weight = Poly((Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2), rng.randint(1, 2)))
        terms.append(PropagatorTerm(rng.choice(pairings), weight))
    C = Propagator(D, tuple(terms))
    assert C.terms[0].weight(z0) == 0
    ref = DirectedPairing(2 * D, tuple((c, D + c) for c in range(1, D + 1)))
    cov = ExplicitCovariance.from_propagator(C, form)
    # per term: gamma(z0) * sign and the oriented pairs
    signed = [
        (t.weight(z0) * (pairing_sign(t.oriented(), ref) if b else 1), t.oriented().pairs)
        for t in C.terms
    ]
    components = list(itertools.product(range(N), repeat=D))  # in encode_index order
    nonzero = 0
    for x, xv in enumerate(components):
        for y, yv in enumerate(components):
            value = xv + yv  # value[s - 1] is the index on slot s
            expected = sum(
                w * math.prod(form.upper_entry(value[i - 1], value[j - 1]) for i, j in pairs)
                for w, pairs in signed
            )
            assert cov.entry(x, y) == expected, (x, y)
            nonzero += expected != 0
    assert nonzero > 0


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_each_term_carries_its_pairing_sign_at_b1(D):
    # a one-term table at Sp(2), for every block-symmetric pairing: each
    # nonzero entry is pairing_sign(t.oriented(), ref) times the product of
    # upper form entries over the oriented pairs, and both signs occur
    form = GradedForm(2, 1)
    ref = DirectedPairing(2 * D, tuple((c, D + c) for c in range(1, D + 1)))
    components = list(itertools.product(range(2), repeat=D))  # in encode_index order
    signs = set()
    for pairing in block_symmetric_pairings(D):
        t = PropagatorTerm(pairing, Poly.const(1))
        oriented = t.oriented()
        sign = pairing_sign(oriented, ref)
        signs.add(sign)
        cov = ExplicitCovariance.from_propagator(Propagator(D, (t,)), form)
        assert cov.den == 1 and any(cov.rows)
        for x, row in enumerate(cov.rows):
            for y, a in row.items():
                value = components[x] + components[y]
                product = math.prod(form.upper_entry(value[i - 1], value[j - 1]) for i, j in oriented.pairs)
                assert a == sign * product, (pairing, x, y)
    assert signs == ({1} if D == 1 else {1, -1})


def _reference_covariance(C: Propagator, form: GradedForm) -> ExplicitCovariance:
    """The covariance built term by term: each weight read as a Fraction at
    z0, each term's orientation and grading sign from its `DirectedPairing`,
    and each entry added into its row as (X, Y, value)."""
    N, D = form.N, C.D
    ref = DirectedPairing(2 * D, tuple((c, D + c) for c in range(1, D + 1)))
    upper = form.upper_nonzeros()
    weights = [term.weight(form.z_value) for term in C.terms]
    den = math.lcm(*(w.denominator for w in weights))
    digit = [(N ** (D - s), 0) for s in range(1, D + 1)] + [(0, N ** (D - s)) for s in range(1, D + 1)]
    rows = [{} for _ in range(N**D)]
    for term, weight in zip(C.terms, weights):
        oriented = term.oriented()
        base = weight.numerator * (den // weight.denominator)
        base *= pairing_sign(oriented, ref) if form.b else 1
        entries = [(0, 0, base)]
        for i, j in oriented.pairs:
            (xi, yi), (xj, yj) = digit[i - 1], digit[j - 1]
            choices = [(u * xi + v * xj, u * yi + v * yj, g) for u, v, g in upper]
            entries = [(x + dx, y + dy, val * g) for x, y, val in entries for dx, dy, g in choices]
        for x, y, val in entries:
            rows[x][y] = rows[x].get(y, 0) + val
    return ExplicitCovariance(N, D, form.b, rows, den)


@functools.cache
def cached_block_symmetric_pairings(D: int) -> tuple:
    return tuple(block_symmetric_pairings(D))


@st.composite
def covariance_tables(draw):
    """A block-symmetric table at D <= 4 (through strands, caps and cups)
    with z-polynomial weights, the first of which vanishes at z0, and a
    form of either grading with N <= 4."""
    D = draw(st.integers(1, 4))
    b = draw(st.integers(0, 1))
    N = draw(st.sampled_from((2, 4) if b else (1, 2, 3, 4)))
    z0 = -N if b else N
    pairings = cached_block_symmetric_pairings(D)
    coefficients = st.lists(st.fractions(-3, 3, max_denominator=6), min_size=1, max_size=3)
    weights = coefficients.map(Poly)
    vanishing = Poly((-z0, 1)) * draw(weights.filter(bool))
    terms = [PropagatorTerm(draw(st.sampled_from(pairings)), vanishing)]
    for _ in range(draw(st.integers(0, 4))):
        terms.append(PropagatorTerm(draw(st.sampled_from(pairings)), draw(weights)))
    return Propagator(D, tuple(terms)), GradedForm(N, b)


@settings(max_examples=80, deadline=None)
@given(case=covariance_tables())
def test_covariance_matches_the_term_by_term_reference(case):
    C, form = case
    assert C.terms[0].weight(form.z_value) == 0
    cov, ref = ExplicitCovariance.from_propagator(C, form), _reference_covariance(C, form)
    assert (cov.rows, cov.den) == (ref.rows, ref.den)


@pytest.mark.parametrize("D,N,b", [(5, 3, 0), (5, 4, 0), (5, 2, 1), (6, 2, 0), (6, 3, 0)])
def test_full_symmetrizer_covariance_matches_the_reference(D, N, b):
    C, form = full_symmetrizer_table(D), GradedForm(N, b)
    cov, ref = ExplicitCovariance.from_propagator(C, form), _reference_covariance(C, form)
    assert (cov.rows, cov.den) == (ref.rows, ref.den)


def test_fourth_moment_of_unit_gaussian_is_three():
    cov = one_dim_unit_covariance()
    assert bosonic_moment(cov, [0, 0, 0, 0]) == 3
    assert bosonic_moment(cov, [0] * 6) == 15  # (6-1)!!


def test_bosonic_moment_validation():
    cov = one_dim_unit_covariance()
    with pytest.raises(ValueError, match="odd-length"):
        bosonic_moment(cov, [0, 0, 0])
    assert bosonic_moment(cov, []) == 1


def test_bosonic_moment_symmetric_in_arguments(rng):
    cov = ExplicitCovariance.from_propagator(identity_plus_swap(), GradedForm(2, 0))
    for _ in range(20):
        idx = [rng.randrange(4) for _ in range(4)]
        shuffled = list(idx)
        rng.shuffle(shuffled)
        assert bosonic_moment(cov, idx) == bosonic_moment(cov, shuffled)


def test_trace_invariant_matches_numeric_value():
    # <trace invariant> at N=2 with identity+swap table is N^2 + N = 6
    assert numeric_invariant_expectation(dipole(2), identity_plus_swap(), 2, 0) == 6


def test_covariance_parity_validation():
    with pytest.raises(ValueError, match="parity"):
        ExplicitCovariance(2, 1, 0, [{1: 1}, {}])
    with pytest.raises(ValueError, match="parity"):
        ExplicitCovariance(2, 1, 0, [{1: 1}, {0: -1}])
    with pytest.raises(ValueError, match="parity"):
        # nonzero diagonal is not antisymmetric
        ExplicitCovariance(2, 1, 1, [{0: 1}, {}])
    with pytest.raises(ValueError, match="parity"):
        ExplicitCovariance(2, 1, 1, [{1: 1}, {0: 1}])
    # an explicit zero is no entry, so it breaks no parity
    assert ExplicitCovariance(2, 1, 1, [{1: 0}, {}]).rows == [{}, {}]


def test_covariance_takes_int_numerators_on_components_only():
    # the contraction multiplies int numerators and divides by den^(v/2) once
    with pytest.raises(ValueError, match="int numerator"):
        ExplicitCovariance(2, 1, 1, [{1: Fraction(1, 2)}, {0: Fraction(-1, 2)}])
    with pytest.raises(ValueError, match="int numerator"):
        ExplicitCovariance(2, 1, 0, [{1: 1.0}, {0: 1.0}])
    # a column key outside 0..N^D-1 names no component
    with pytest.raises(ValueError, match="on a component"):
        ExplicitCovariance(2, 1, 0, [{5: 1}, {}])
    with pytest.raises(ValueError, match="on a component"):
        ExplicitCovariance(2, 1, 0, [{-1: 1, 1: 1}, {0: 1}])


def test_covariance_rejects_a_wrong_row_count():
    with pytest.raises(ValueError, match="rows"):
        ExplicitCovariance(2, 1, 0, [{0: 1}])
    with pytest.raises(ValueError, match="rows"):
        ExplicitCovariance(2, 2, 0, [{} for _ in range(2)])
    with pytest.raises(ValueError, match="rows"):
        ExplicitCovariance(1, 1, 0, [{0: 1}, {}])


def test_exterior_algebra_basics():
    t1 = ExteriorElement.generator(4, 0)
    t2 = ExteriorElement.generator(4, 1)
    assert (t1 * t2).terms == {0b11: Fraction(1)}
    assert (t2 * t1).terms == {0b11: Fraction(-1)}
    assert (t1 * t1).terms == {}
    # associativity spot check with sums
    a = t1 + t2.scaled(3)
    b = ExteriorElement.generator(4, 2) + ExteriorElement.scalar(4, 2)
    c = ExteriorElement.generator(4, 3)
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.terms == rhs.terms


def test_exterior_exp_truncates():
    q = ExteriorElement(4, {0b0011: Fraction(2), 0b1100: Fraction(-1)})
    w = exterior_exp(q)
    # exp(2 t1t2 - t3t4) = 1 + 2 t1t2 - t3t4 - 2 t1t2t3t4
    assert w.terms == {
        0: Fraction(1),
        0b0011: Fraction(2),
        0b1100: Fraction(-1),
        0b1111: Fraction(-2),
    }


def two_generator_covariance(c: Fraction) -> ExplicitCovariance:
    # odd parity needs b=1 and D odd; N=2, D=1 gives two components
    return dense_covariance(2, 1, 1, [[Fraction(0), c], [-c, Fraction(0)]])


def test_berezin_two_generator_closed_form():
    # hand expansion at depth 2: for covariance [[0, c], [-c, 0]] the
    # quadratic form is its inverse, with upper entry a = -1/c, so the
    # weight is exp(-a t0 t1) = 1 + (1/c) t0 t1, the normalization is the
    # top coefficient 1/c, and <t0 t1> = 1 / (1/c) = c
    c = Fraction(5, 3)
    a = Fraction(-1) / c
    by_hand = ExteriorElement(2, {0: Fraction(1), 0b11: -a})
    quadratic = ExteriorElement(2, {0b11: -a})
    assert exterior_exp(quadratic).terms == by_hand.terms
    cov = two_generator_covariance(c)
    assert berezin_expectation(cov, [0, 1]) == c
    assert berezin_expectation(cov, [1, 0]) == -c
    assert berezin_expectation(cov, []) == 1


def test_berezin_reproduces_its_covariance():
    cov = two_generator_covariance(Fraction(2))
    for x in range(2):
        for y in range(2):
            assert berezin_expectation(cov, [x, y]) == cov.entry(x, y)


def test_berezin_odd_monomial_vanishes():
    cov = two_generator_covariance(Fraction(1))
    assert berezin_expectation(cov, [0]) == 0
    assert berezin_expectation(cov, [0, 1, 1]) == 0


def test_berezin_antisymmetric_under_transposition():
    cov = two_generator_covariance(Fraction(1))
    assert berezin_expectation(cov, [0, 1]) == -berezin_expectation(cov, [1, 0])


def test_berezin_wick_four_point():
    # four generators with two independent blocks
    m = [[Fraction(0)] * 4 for _ in range(4)]
    pairs = {(0, 1): Fraction(2), (2, 3): Fraction(-3), (0, 3): Fraction(1)}
    for (i, j), v in pairs.items():
        m[i][j] = v
        m[j][i] = -v
    # fill remaining entries to keep the matrix generic but antisymmetric
    m[0][2], m[2][0] = Fraction(1, 2), Fraction(-1, 2)
    m[1][3], m[3][1] = Fraction(1, 3), Fraction(-1, 3)
    m[1][2], m[2][1] = Fraction(0), Fraction(0)
    cov = dense_covariance(4, 1, 1, m)
    lhs = berezin_expectation(cov, [0, 1, 2, 3])
    # fermionic Wick: C01 C23 - C02 C13 + C03 C12
    rhs = (
        cov.entry(0, 1) * cov.entry(2, 3)
        - cov.entry(0, 2) * cov.entry(1, 3)
        + cov.entry(0, 3) * cov.entry(1, 2)
    )
    assert lhs == rhs


def test_berezin_singular_covariance_restricts_to_support():
    # rank-2 antisymmetric matrix on 4 components: components 2 and 3
    # vanish in distribution and the weight restricts to the 0-1 block
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[0][1], m[1][0] = Fraction(1), Fraction(-1)
    cov = dense_covariance(4, 1, 1, m)
    assert berezin_expectation(cov, [0, 1]) == 1
    assert berezin_expectation(cov, [0, 3]) == 0
    assert berezin_expectation(cov, [3, 3]) == 0


def test_generator_cap():
    with pytest.raises(CapExceededError):
        ExteriorElement(17)


@pytest.mark.parametrize("N", [2, 3])
def test_oracle_matches_pipeline_bosonic(N):
    prop = Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram((2,)), GradedForm(N, 0))
    )
    for g in enumerate_invariants(2, 2):
        pipeline = gaussian_expectation(g, prop, 0)(Fraction(N))
        assert numeric_invariant_expectation(g, prop, N, 0) == pipeline


def test_oracle_matches_pipeline_b1_even_d():
    prop = Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram((1, 1)), GradedForm(2, 1))
    )
    for g in enumerate_invariants(2, 2):
        pipeline = gaussian_expectation(g, prop, 1)(Fraction(2))
        assert numeric_invariant_expectation(g, prop, 2, 1) == pipeline


def test_oracle_matches_pipeline_fermionic_quadratic():
    # b=1, D=3, N=2: odd parity, full Berezin integration over 8 generators
    prop = Propagator.identity(3)
    g = dipole(3)
    pipeline = gaussian_expectation(g, prop, 1)(Fraction(2))
    assert pipeline == -8
    assert numeric_invariant_expectation(g, prop, 2, 1) == pipeline


def test_oracle_reference_pairing_invariance(rng):
    C = identity_plus_swap()
    g4 = StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8)))
    base = numeric_invariant_expectation(g4, C, 2, 0)
    for ref_pairs in [((1, 3), (2, 4)), ((4, 2), (3, 1)), ((2, 3), (1, 4))]:
        ref = DirectedPairing(4, ref_pairs)
        assert numeric_invariant_expectation(g4, C, 2, 0, ref=ref) == base


def test_evaluated_invariant_is_a_class_function(rng):
    # the evaluated expectation does not depend on the reference pairing of
    # the tensors nor on the chosen strand orientations, at D=3 with four
    # vertices and both gradings (the b=1 case runs through the fermionic
    # sign bookkeeping end to end)
    refs = [
        DirectedPairing(4, ((1, 2), (3, 4))),
        DirectedPairing(4, ((3, 1), (2, 4))),
        DirectedPairing(4, ((4, 3), (2, 1))),
    ]
    table = Propagator.identity(3)
    for trial in range(5):
        g = None
        while g is None or not g.is_connected():
            pts = list(range(1, 13))
            rng.shuffle(pts)
            g = StrandedGraph(3, 4, tuple((pts[2 * i], pts[2 * i + 1]) for i in range(6)))
        for b in (0, 1):
            base = numeric_invariant_expectation(g, table, 2, b)
            for ref in refs[1:]:
                assert numeric_invariant_expectation(g, table, 2, b, ref=ref) == base
            flipped = tuple((y, x) if rng.random() < 0.5 else (x, y) for x, y in g.strands)
            reoriented = g.with_orientation(flipped)
            assert numeric_invariant_expectation(reoriented, table, 2, b) == base


# -- the Fraction loop the integer oracle replaced, kept as its reference ------


def full_symmetrizer_table(D: int) -> Propagator:
    """(1/D!) times the sum over slot permutations."""
    weight = Poly.const(Fraction(1, math.factorial(D)))
    return Propagator(D, tuple(
        PropagatorTerm(tuple((c, D + 1 + sigma[c - 1]) for c in range(1, D + 1)), weight)
        for sigma in itertools.permutations(range(D))
    ))


def arcs_table(D: int) -> Propagator:
    """The identity minus twice a cap-cup over slots 1, 2: row X of its
    covariance also holds codes Y whose values are no relabeling of X's,
    so X alone does not force the second code."""
    straight = tuple((c, D + c) for c in range(3, D + 1))
    return Propagator(D, (
        PropagatorTerm(tuple((c, D + c) for c in range(1, D + 1)), Poly.const(1)),
        PropagatorTerm(((1, 2), (D + 1, D + 2)) + straight, Poly.const(-2)),
    ))


def reference_invariant_expectation(
    S: StrandedGraph, C: Propagator, N: int, b: int, ref: Optional[DirectedPairing] = None
) -> Fraction:
    """One Fraction moment per index assignment, components coded by
    encode_index per vertex: the oracle loop before its integer rewrite."""
    if S.vertices == 0:
        return Fraction(1)
    if S.vertices % 2 != 0:
        return Fraction(0)
    form = GradedForm(N, b)
    cov = ExplicitCovariance.from_propagator(C, form)
    if ref is None:
        ref = DirectedPairing(
            S.vertices, tuple((v, v + 1) for v in range(1, S.vertices, 2))
        )
    normal = invariant_sign_normal_form(S, ref)
    sign = Fraction(normal.sign if b else 1)
    order = ref.flatten()  # tensor multiplication order

    strands = normal.contractions.pairs
    lower_nz = sorted(form.lower.items())  # [((i, j), value)]

    berezin = _BerezinState(cov) if (b * S.D) % 2 else None
    total = Fraction(0)
    for assignment in itertools.product(lower_nz, repeat=len(strands)):
        node_value: Dict[int, int] = {}
        weight = sign
        for ((i, j), g), (k, l) in zip(assignment, strands):
            node_value[k] = i
            node_value[l] = j
            weight *= g
        components = []
        for v in order:
            idx = tuple(node_value[(v - 1) * S.D + c] for c in range(1, S.D + 1))
            components.append(encode_index(idx, N))
        moment = berezin.expectation(components) if berezin else bosonic_moment(cov, components)
        total += weight * moment
    return total


@pytest.mark.parametrize("N,b", [(2, 0), (3, 0), (2, 1)])
def test_integer_oracle_matches_its_fraction_reference(N, b):
    # b = 1 runs the fermionic path at D = 3 and the symplectic bosonic
    # path at D = 2 and 4; the arcs table leaves the second code unforced
    rng = random.Random(7000 + 10 * N + b)
    shapes = [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (4, 2), (4, 4)]
    for D, vertices in shapes:
        g = rand_connected_graph(rng, D, vertices)
        tables = (Propagator.identity(D), random_symmetric_table(rng, D), full_symmetrizer_table(D), arcs_table(D))
        for table in tables:
            expected = reference_invariant_expectation(g, table, N, b)
            assert numeric_invariant_expectation(g, table, N, b) == expected, (D, vertices)


def test_integer_oracle_matches_its_reference_with_fractional_weights():
    # weights with unlike denominators exercise the common denominator
    rng = random.Random(7100)
    pairings = block_symmetric_pairings(2)
    table = Propagator(2, tuple(
        PropagatorTerm(p, Poly.const(Fraction(w, d)))
        for p, w, d in zip(pairings, (1, -2, 3), (2, 3, 4))
    ))
    for vertices in (2, 4):
        g = rand_connected_graph(rng, 2, vertices)
        for N, b in [(2, 0), (3, 0), (2, 1)]:
            expected = reference_invariant_expectation(g, table, N, b)
            assert numeric_invariant_expectation(g, table, N, b) == expected


def test_covariance_is_integer_numerators_over_one_denominator():
    cov = ExplicitCovariance(2, 1, 0, [{0: 3, 1: 2}, {0: 2, 1: 0}], den=30)
    assert cov.den == 30
    assert cov.rows == [{0: 3, 1: 2}, {0: 2}]
    assert cov.entry(0, 1) == Fraction(1, 15)
    assert cov.entry(1, 1) == 0
    # weights 1/2 (identity) and 1/3 (swap) at O(2): numerators over den = 6
    C = Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly.const(Fraction(1, 2))),
            PropagatorTerm(((1, 4), (2, 3)), Poly.const(Fraction(1, 3))),
        ),
    )
    cov = ExplicitCovariance.from_propagator(C, GradedForm(2, 0))
    assert cov.den == 6
    assert all(type(a) is int and a for row in cov.rows for a in row.values())
    # x = (0, 0) meets itself by both terms; x = (0, 1) meets itself by the identity, 3/6,
    # and (1, 0) by the swap, 2/6
    assert cov.entry(0, 0) == Fraction(5, 6)
    assert cov.rows[1] == {1: 3, 2: 2}


def test_berezin_components_are_computed_once(monkeypatch):
    cov = ExplicitCovariance.from_propagator(Propagator.identity(3), GradedForm(2, 1))
    state = _BerezinState(cov)
    first = state.component(3)
    monkeypatch.setattr(ExplicitCovariance, "entry", lambda *args: pytest.fail("recomputed"))
    assert state.component(3) is first
    state.expectation([3, 3])


def test_oracle_work_cap_raises_before_the_covariance(monkeypatch):
    g = StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8)))
    assert oracle.oracle_work(g, 3) == 3**4 * 3
    assert oracle.oracle_work(dipole(3), 2) == 2**3  # one vertex pairing
    # a fermionic assignment weighs (v-1)!!, one term per signed vertex pairing
    assert oracle.oracle_work(pillow(), 6) == 6**6 * 3 <= oracle.WORK_CAP
    monkeypatch.setattr(
        ExplicitCovariance, "from_propagator", lambda *a: pytest.fail("covariance built")
    )
    monkeypatch.setattr(oracle, "WORK_CAP", 242)
    with pytest.raises(CapExceededError, match="243"):
        numeric_invariant_expectation(g, identity_plus_swap(), 3, 0)


def test_oracle_check_over_the_work_cap_exits_3(tmp_path, capsys, monkeypatch):
    # N = 32 keeps the covariance within its size cap, but the D = 2 v = 4
    # graph then needs 32^4 * 3 index assignments and pairings; the
    # assignments alone, 32^4, are past the cap, and that product is named
    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8))).to_json()))
    prop.write_text(json.dumps(Propagator.identity(2).to_json()))
    monkeypatch.setattr(
        ExplicitCovariance, "from_propagator", lambda *a: pytest.fail("covariance built")
    )
    code = run(["oracle-check", "--graph", str(graph), "--propagator", str(prop), "--N", "32"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert str(32**4) in err and str(oracle.WORK_CAP) in err


def assert_sp2_oracle_check_exits_3(tmp_path, capsys, monkeypatch, g, work, named):
    """oracle-check of g under the identity at Sp(2) exits 3, with empty
    stdout and no covariance built.  Its message names `named`, the first
    partial product of the work (`work` terms in all) past the cap."""
    assert 2 ** len(g.strands) * math.prod(range(1, g.vertices, 2)) == work >= named > oracle.WORK_CAP
    with pytest.raises(CapExceededError, match=f"at least {named} "):
        oracle.oracle_work(g, 2)
    graph, prop = tmp_path / "graph.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(g.to_json()))
    prop.write_text(json.dumps(Propagator.identity(g.D).to_json()))
    monkeypatch.setattr(
        ExplicitCovariance, "from_propagator", lambda *a: pytest.fail("covariance built")
    )
    argv = ["oracle-check", "--graph", str(graph), "--propagator", str(prop), "--N", "2", "--b", "1"]
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert str(named) in err and str(oracle.WORK_CAP) in err


def test_oracle_check_d3_v12_at_sp2_exits_3_before_the_covariance(tmp_path, capsys, monkeypatch):
    # 2^18 assignments times 11!! signed vertex pairings: the literal sum's
    # terms, which the contraction regroups but does not bound below;
    # 2^18 * 11 is the first partial product past the cap
    g = rand_connected_graph(random.Random(12), 3, 12)
    assert_sp2_oracle_check_exits_3(
        tmp_path, capsys, monkeypatch, g, 2**18 * math.prod(range(1, 12, 2)), 2**18 * 11
    )


def test_oracle_check_d1_v14_at_sp2_exits_3_before_the_covariance(tmp_path, capsys, monkeypatch):
    # only 2^7 assignments, but 13!! vertex pairings each: seconds of
    # contraction, so the cap counts the pairings at odd parity too
    g = rand_stranded_graph(random.Random(14), 1, 14)
    # 2^7 * 13 * 11 * 9 * 7 is the first partial product past the cap
    assert_sp2_oracle_check_exits_3(
        tmp_path, capsys, monkeypatch, g, 2**7 * math.prod(range(1, 14, 2)), 2**7 * 13 * 11 * 9 * 7
    )


FORBIDDEN_IN_THE_ORACLE = {
    "strand_walk",
    "partner_map",
    "face_decomposition",
    "_wick_fold",
    "gaussian_expectation",
    "element_to_map",
    "diagram_to_map",
}


def test_oracle_imports_no_pipeline_machinery():
    source = pathlib.Path(oracle.__file__).read_text()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & FORBIDDEN_IN_THE_ORACLE


def random_block_symmetric_pairing(rng: random.Random, D: int) -> tuple:
    """A slot pairing invariant under swapping the two tensor blocks: slots
    left alone go straight down, a pair of slots either crosses or is a
    cap over the matching cup."""
    slots = list(range(1, D + 1))
    rng.shuffle(slots)
    pairs = []
    while slots:
        i = slots.pop()
        if slots and rng.random() < 0.5:
            j = slots.pop()
            if rng.random() < 0.5:
                pairs += [(i, D + j), (j, D + i)]
            else:
                pairs += [(i, j), (D + i, D + j)]
        else:
            pairs.append((i, D + i))
    return tuple(pairs)


@pytest.mark.parametrize("D,N", [(5, 4), (10, 2)])
def test_covariance_at_the_size_cap_matches_its_definition(D, N):
    # N^D = 1024 at b = 1: odd parity at D = 5, even at D = 10; a sample of
    # entries is read against the definition, every nonzero of a few rows too
    assert N**D == oracle.COVARIANCE_SIZE_CAP
    rng = random.Random(9400 + D)
    form = GradedForm(N, 1)
    z0 = form.z_value
    terms = [PropagatorTerm(tuple((c, D + c) for c in range(1, D + 1)), Poly.const(1))]
    for _ in range(3):
        weight = Poly((Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2)))
        terms.append(PropagatorTerm(random_block_symmetric_pairing(rng, D), weight))
    C = Propagator(D, tuple(terms))
    cov = ExplicitCovariance.from_propagator(C, form)
    ref = DirectedPairing(2 * D, tuple((c, D + c) for c in range(1, D + 1)))
    components = list(itertools.product(range(N), repeat=D))  # in encode_index order

    def expected(x, y):
        value = components[x] + components[y]  # value[s - 1] is the index on slot s
        return sum(
            t.weight(z0)
            * pairing_sign(t.oriented(), ref)
            * math.prod(form.upper_entry(value[i - 1], value[j - 1]) for i, j in t.oriented().pairs)
            for t in C.terms
        )

    assert all(a != 0 for row in cov.rows for a in row.values())
    sample = [(rng.randrange(N**D), rng.randrange(N**D)) for _ in range(300)]
    for x in rng.sample(range(N**D), 8):
        sample += [(x, y) for y in cov.rows[x]]
    assert any(cov.rows[x] for x, _ in sample)
    for x, y in sample:
        assert cov.entry(x, y) == expected(x, y), (x, y)


# -- reach of the fermionic oracle ----------------------------------------------


def pillow() -> StrandedGraph:
    """Two dipoles on colours 1, 2 (vertices 1-2 and 3-4) joined by colour 3."""
    return StrandedGraph(3, 4, ((1, 4), (2, 5), (7, 10), (8, 11), (3, 9), (6, 12)))


def sp_projector_table(lam: tuple, N: int) -> Propagator:
    return Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram(lam), GradedForm(N, 1))
    )


@pytest.mark.parametrize("lam", [(3,), (1, 1, 1)])
@pytest.mark.parametrize("N", [4, 6, 8])
def test_fermionic_oracle_matches_pipeline_past_rank_16(lam, N):
    # (1,1,1) has covariance rank 20 at Sp(4), 56 at Sp(6) and 120 at
    # Sp(8), beyond an exterior algebra of 2^16; signed vertex pairings
    # have no such wall
    table = sp_projector_table(lam, N)
    for g in (dipole(3), pillow()):
        pipeline = gaussian_expectation(g, table, 1)(Fraction(N))
        assert numeric_invariant_expectation(g, table, N, 1) == pipeline, (lam, N, g)


def test_fermionic_oracle_matches_pipeline_on_every_d3_v2_class():
    table = sp_projector_table((1, 1, 1), 4)
    classes = enumerate_invariants(3, 2)
    assert len(classes) == 11
    for g in classes:
        assert numeric_invariant_expectation(g, table, 4, 1) == gaussian_expectation(g, table, 1)(Fraction(4))


def test_oracle_check_reaches_sp4_and_still_rejects_mixed_symmetry(tmp_path, capsys):
    graph, prop = tmp_path / "dipole.json", tmp_path / "prop.json"
    graph.write_text(json.dumps(dipole(3).to_json()))
    prop.write_text(json.dumps({"projector": {"lambda": [1, 1, 1]}}))
    argv = ["oracle-check", "--graph", str(graph), "--propagator", str(prop), "--N", "4", "--b", "1", "--json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "N": 4, "agree": True, "b": 1, "oracle": "-20", "pipeline": "-20"
    }
    # c_lambda T for (2,1) is neither symmetric nor antisymmetric, so it is
    # no covariance: the mixed-symmetry propagator needs a self-adjoint idempotent
    prop.write_text(json.dumps({"projector": {"lambda": [2, 1]}}))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "covariance does not match the component parity" in err


# -- the sparse contraction against the literal reference -----------------------


def reference_tables(rng: random.Random, D: int) -> list:
    tables = [Propagator.identity(D), full_symmetrizer_table(D), random_symmetric_table(rng, D)]
    return tables + [arcs_table(D)] if D >= 2 else tables


def assert_matches_reference(graphs, tables, forms) -> int:
    """The oracle against its reference per graph, table and form; returns
    the number of nonzero values compared.  The fermionic reference
    integrates over at most GENERATOR_CAP generators, so a table whose
    covariance has a larger rank under a form is not compared there."""
    nonzero = 0
    for table in tables:
        for N, b in forms:
            for g in graphs:
                try:
                    expected = reference_invariant_expectation(g, table, N, b)
                except CapExceededError:
                    break
                assert numeric_invariant_expectation(g, table, N, b) == expected, (g, table, N, b)
                nonzero += expected != 0
    return nonzero


# bosonic gradings: O(N) at every D, Sp(N) at even D
@pytest.mark.parametrize("vertices,forms", [
    (2, [(2, 0), (3, 0), (2, 1), (4, 1)]),
    (4, [(2, 0), (3, 0), (2, 1), (4, 1)]),
    (6, [(2, 0), (3, 0), (2, 1)]),  # Sp(4) at v = 6 is 4^6 assignments per reference moment
])
def test_contraction_matches_the_reference_on_every_d2_class(vertices, forms):
    rng = random.Random(9500 + vertices)
    assert_matches_reference(enumerate_invariants(2, vertices), reference_tables(rng, 2), forms)


def test_contraction_matches_the_reference_on_every_d3_class():
    rng = random.Random(9600)
    assert_matches_reference(enumerate_invariants(3, 2), reference_tables(rng, 3), [(2, 0), (3, 0)])
    classes = enumerate_invariants(3, 4)
    assert len(classes) == 438
    assert_matches_reference(classes, reference_tables(rng, 3), [(2, 0)])
    # O(3) on a seeded sample: the reference takes 3^6 moments per class
    assert_matches_reference(rng.sample(classes, 16), reference_tables(rng, 3), [(3, 0)])


def test_contraction_matches_the_reference_on_sampled_d4_v4_classes():
    rng = random.Random(9700)
    classes = rng.sample(enumerate_invariants(4, 4), 3)
    assert_matches_reference(classes, reference_tables(rng, 4), [(2, 0), (2, 1)])
    # O(3): the reference takes 3^8 moments per class
    assert_matches_reference(classes[:2], reference_tables(rng, 4), [(3, 0)])


def drawn_table(draw, D: int) -> Propagator:
    """One to three block-symmetric pairings with nonzero integer weights."""
    chosen = draw(st.lists(st.sampled_from(block_symmetric_pairings(D)), min_size=1, max_size=3, unique=True))
    return Propagator(D, tuple(
        PropagatorTerm(p, Poly.const(draw(st.integers(-3, 3).filter(bool)))) for p in chosen
    ))


@st.composite
def bosonic_cases(draw):
    """A connected graph, a drawn table and a bosonic form; D = 4, v = 4 is
    left to the sampled classes, as its reference takes 3^8 moments."""
    D, vertices = draw(st.sampled_from([(1, 2), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (4, 2)]))
    g = rand_connected_graph(random.Random(draw(st.integers(0, 2**32))), D, vertices)
    table = drawn_table(draw, D)
    N, b = draw(st.sampled_from([(2, 0), (3, 0), (2, 1)] if D % 2 == 0 else [(2, 0), (3, 0)]))
    return g, table, N, b


@settings(max_examples=60, deadline=None)
@given(case=bosonic_cases())
def test_contraction_matches_the_reference_on_random_graphs(case):
    g, table, N, b = case
    assert numeric_invariant_expectation(g, table, N, b) == reference_invariant_expectation(g, table, N, b)


# -- the signed contraction against Berezin integration --------------------------


def test_signed_contraction_matches_berezin_on_every_d3_v2_class():
    rng = random.Random(9800)
    classes = enumerate_invariants(3, 2)
    assert assert_matches_reference(classes, reference_tables(rng, 3), [(2, 1), (4, 1)]) > 0


def test_signed_contraction_matches_berezin_on_sampled_d3_v4_classes():
    # the reference takes 2^6 Berezin moments per class at Sp(2)
    rng = random.Random(9900)
    classes = rng.sample(enumerate_invariants(3, 4), 24)
    assert assert_matches_reference(classes, reference_tables(rng, 3), [(2, 1)]) > 0


def test_signed_contraction_matches_berezin_on_random_d1_graphs():
    # D = 1 graphs are dipoles only, so these are mostly disconnected; a
    # product of v anticommuting components of Sp(N) vanishes unless v <= N,
    # so Sp(6) is where v = 6 is nonzero
    rng = random.Random(10000)
    for vertices in (2, 4, 6):
        graphs = [rand_stranded_graph(rng, 1, vertices) for _ in range(3)]
        assert assert_matches_reference(graphs, reference_tables(rng, 1), [(2, 1), (4, 1), (6, 1)]) > 0


def test_signed_contraction_matches_berezin_at_d5_v2():
    # at Sp(2) the identity has rank 32, past the reference's cap; the
    # seeded random tables of rank at most 16 are compared
    rng = random.Random(10100)
    graphs = [rand_connected_graph(rng, 5, 2) for _ in range(3)]
    tables = reference_tables(rng, 5) + [random_symmetric_table(rng, 5) for _ in range(6)]
    assert assert_matches_reference(graphs, tables, [(2, 1)]) > 0


@st.composite
def fermionic_cases(draw):
    """A graph, connected or not, a drawn table and a symplectic form at
    odd parity; the covariance's rank stays within the Berezin reference's
    cap (at most 8 at D = 3, N = 2 and 6 at D = 1)."""
    D, vertices = draw(st.sampled_from([(1, 2), (1, 4), (1, 6), (3, 2), (3, 4)]))
    g = rand_stranded_graph(random.Random(draw(st.integers(0, 2**32))), D, vertices)
    table = drawn_table(draw, D)
    N = draw(st.sampled_from([2, 4, 6] if D == 1 else [2]))
    return g, table, N


@settings(max_examples=60, deadline=None)
@given(case=fermionic_cases())
def test_signed_contraction_matches_berezin_on_random_graphs(case):
    g, table, N = case
    assert numeric_invariant_expectation(g, table, N, 1) == reference_invariant_expectation(g, table, N, 1)


def test_odd_parity_past_n_to_the_d_components_folds_to_zero():
    # v anticommuting components drawn from the N^D = 2 of D = 1 at Sp(2)
    # repeat one, so every moment vanishes: the signed pairings cancel
    rng = random.Random(10200)
    for vertices in range(4, 13, 2):
        g = rand_stranded_graph(rng, 1, vertices)
        pipeline = gaussian_expectation(g, Propagator.identity(1), 1)(Fraction(2))
        assert numeric_invariant_expectation(g, Propagator.identity(1), 2, 1) == 0 == pipeline


def test_pfaffian_row_signs_match_the_pipeline_at_d3_v6_and_v8():
    # past the first pair the fold's (-1)^k signs meet pairs taken after
    # others; at D = 3, Sp(2) the components are fermionic and v > N^D = 8
    # is not reached, so moments need not vanish
    rng = random.Random(10300)
    tables = [Propagator.identity(3), sp_projector_table((1, 1, 1), 2), sp_projector_table((3,), 2)]
    nonzero = 0
    for vertices in (6, 8):
        for table in tables:
            for _ in range(6):
                g = rand_stranded_graph(rng, 3, vertices)
                pipeline = gaussian_expectation(g, table, 1)(Fraction(2))
                assert numeric_invariant_expectation(g, table, 2, 1) == pipeline, (g, table)
                nonzero += pipeline != 0
    assert nonzero > 0


POOL = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "pools" / "oracle-check.json").read_text()
)


@pytest.mark.parametrize("graph,table,N,b", [
    pytest.param("g_d4_v4_1.json", "sym_d4.json", "3", "0", id="sym_d4-O3"),
    pytest.param("g_d3_v4_1.json", "sym_d3.json", "2", "1", id="sym_d3-Sp2"),
])
def test_oracle_check_lists_no_assignment(tmp_path, capsys, monkeypatch, graph, table, N, b):
    # the D = 4, v = 4 symmetrizer job at O(3) and the fermionic D = 3, v = 4
    # one at Sp(2) agree, byte for byte with their goldens, in one contraction
    for name in (graph, table):
        (tmp_path / name).write_text(json.dumps(POOL["files"][name]))
    argv = ["oracle-check", "--graph", "@" + graph, "--propagator", "@" + table,
            "--N", N, "--b", b, "--json"]
    job = next(j for j in POOL["jobs"] if j["argv"] == argv)
    calls = []
    contraction = oracle._sparse_contraction
    monkeypatch.setattr(oracle, "_sparse_contraction", lambda *a: calls.append(a) or contraction(*a))
    code = run([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    out = capsys.readouterr().out
    assert json.loads(out)["agree"] is True
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (job["exit"], job["sha256"])
    assert len(calls) == 1
