import itertools
import math
import random
from fractions import Fraction

import pytest

from gradedtensor.errors import CapExceededError
from gradedtensor.model import (
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    enumerate_invariants,
    gaussian_expectation,
)
from gradedtensor.combinatorics import DirectedPairing, pairing_sign
from gradedtensor.oracle import (
    ExplicitCovariance,
    ExteriorElement,
    berezin_expectation,
    bosonic_moment,
    exterior_exp,
    numeric_invariant_expectation,
)
from gradedtensor.polynomial import Poly
from gradedtensor.representation import GradedForm, decompose_projector_as_propagator
from gradedtensor.young import YoungDiagram

from test_cross_validation import block_symmetric_pairings
from test_model import dipole, identity_plus_swap


def one_dim_unit_covariance() -> ExplicitCovariance:
    return ExplicitCovariance(1, 1, 0, [[Fraction(1)]])


def test_two_point_function_is_the_covariance():
    cov = ExplicitCovariance.from_propagator(identity_plus_swap(), GradedForm(2, 0))
    for x in range(4):
        for y in range(4):
            assert bosonic_moment(cov, [x, y]) == cov.entry(x, y)


@pytest.mark.parametrize("D", [1, 2, 3])
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
    components = list(itertools.product(range(N), repeat=D))  # in encode_index order
    nonzero = 0
    for x, xv in enumerate(components):
        for y, yv in enumerate(components):
            value = xv + yv  # value[s - 1] is the index on slot s
            expected = sum(
                t.weight(z0)
                * (pairing_sign(t.oriented(), ref) if b else 1)
                * math.prod(form.upper_entry(value[i - 1], value[j - 1]) for i, j in t.oriented().pairs)
                for t in C.terms
            )
            assert cov.entry(x, y) == expected, (x, y)
            nonzero += expected != 0
    assert nonzero > 0


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
        ExplicitCovariance(2, 1, 0, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    with pytest.raises(ValueError, match="parity"):
        # nonzero diagonal is not antisymmetric
        ExplicitCovariance(2, 1, 1, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])


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
    return ExplicitCovariance(2, 1, 1, [[Fraction(0), c], [-c, Fraction(0)]])


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
    cov = ExplicitCovariance(4, 1, 1, m)
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
    cov = ExplicitCovariance(4, 1, 1, m)
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
        pipeline = gaussian_expectation(g, prop, 0).poly(Fraction(N))
        assert numeric_invariant_expectation(g, prop, N, 0) == pipeline


def test_oracle_matches_pipeline_b1_even_d():
    prop = Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram((1, 1)), GradedForm(2, 1))
    )
    for g in enumerate_invariants(2, 2):
        pipeline = gaussian_expectation(g, prop, 1).poly(Fraction(2))
        assert numeric_invariant_expectation(g, prop, 2, 1) == pipeline


def test_oracle_matches_pipeline_fermionic_quadratic():
    # b=1, D=3, N=2: odd parity, full Berezin integration over 8 generators
    prop = Propagator.identity(3)
    g = dipole(3)
    pipeline = gaussian_expectation(g, prop, 1).poly(Fraction(2))
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
