import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtensor.brauer import BrauerDiagram
from gradedtensor.combinatorics import (
    DirectedPairing,
    all_pairings,
    canonical_orientation,
    disjoint_union,
    double_factorial,
    face_decomposition,
    pairing_sign,
    partner_map,
    perm_sign,
    strand_walk,
)
from conftest import rand_diagram, rand_directed_pairing


def naive_sign(m1: DirectedPairing, m2: DirectedPairing) -> int:
    """Independent oracle: inversion count of the relabelled sequence."""
    u = m1.flatten()
    v = m2.flatten()
    relabel = {ui: k for k, ui in enumerate(u)}
    seq = [relabel[vi] for vi in v]
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def test_ground_set_validation():
    # all_pairings checks its size when called, before the first matching
    all_pairings(4)
    for n in (3, 0, -2):
        with pytest.raises(ValueError, match="positive and even"):
            all_pairings(n)


def test_perm_sign_is_the_inversion_parity():
    for n in range(7):
        for p in itertools.permutations(range(n)):
            inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
            assert perm_sign(p) == (-1) ** inversions, p


def test_directed_pairing_validation():
    DirectedPairing(4, ((1, 3), (4, 2)))
    with pytest.raises(ValueError):
        DirectedPairing(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        DirectedPairing(4, ((1, 2),))


def test_sign_identity_is_plus_one(rng):
    for n in (2, 4, 6, 8):
        for _ in range(10):
            m = rand_directed_pairing(rng, n)
            assert pairing_sign(m, m) == 1


def test_sign_single_flip_is_minus_one(rng):
    for _ in range(20):
        m = rand_directed_pairing(rng, 8)
        flipped = m.reorient([rng.randrange(4)])
        assert pairing_sign(m, flipped) == -1


def test_sign_matches_inversion_count_oracle(rng):
    for _ in range(200):
        m1 = rand_directed_pairing(rng, 8)
        m2 = rand_directed_pairing(rng, 8)
        assert pairing_sign(m1, m2) == naive_sign(m1, m2)


def test_sign_symmetry_property(rng):
    for _ in range(100):
        m1 = rand_directed_pairing(rng, 8)
        m2 = rand_directed_pairing(rng, 8)
        assert pairing_sign(m1, m2) == pairing_sign(m2, m1)


def test_sign_triple_multiplicativity(rng):
    for _ in range(100):
        m1, m2, m3 = (rand_directed_pairing(rng, 8) for _ in range(3))
        assert pairing_sign(m1, m2) == pairing_sign(m1, m3) * pairing_sign(m2, m3)


def test_sign_ground_set_mismatch():
    m1 = rand_directed_pairing(random.Random(1), 4)
    m2 = rand_directed_pairing(random.Random(1), 6)
    with pytest.raises(ValueError, match="incompatible ground sets"):
        pairing_sign(m1, m2)


def test_sign_independent_of_pair_listing_order(rng):
    for _ in range(50):
        m1 = rand_directed_pairing(rng, 8)
        m2 = rand_directed_pairing(rng, 8)
        shuffled = list(m1.pairs)
        rng.shuffle(shuffled)
        m1s = DirectedPairing(8, tuple(shuffled))
        assert pairing_sign(m1s, m2) == pairing_sign(m1, m2)


def test_all_pairings_counts():
    assert len(list(all_pairings(2))) == 1
    assert len(list(all_pairings(4))) == 3
    assert len(list(all_pairings(8))) == 105


def test_all_pairings_matches_double_factorial_up_to_12():
    for n in (2, 4, 6, 8, 10, 12):
        seen = set()
        count = 0
        for matching in all_pairings(n):
            count += 1
            key = frozenset(frozenset(p) for p in matching)
            assert key not in seen
            seen.add(key)
        assert count == double_factorial(n - 1)


def test_all_pairings_deterministic_order():
    first = list(all_pairings(6))
    second = list(all_pairings(6))
    assert first == second
    assert first[0] == ((1, 2), (3, 4), (5, 6))
    # enumerate_invariants grows matchings in this order, so its output is sorted
    for n in range(2, 13, 2):
        matchings = list(all_pairings(n))
        assert all(a < b for a, b in zip(matchings, matchings[1:]))


def test_canonical_orientation():
    m = canonical_orientation([(4, 1), (3, 2)])
    assert m.pairs == ((1, 4), (2, 3))


def test_disjoint_union_relabels():
    m1 = DirectedPairing(2, ((1, 2),))
    m2 = DirectedPairing(2, ((1, 2),))
    assert disjoint_union(m1, m2).pairs == ((1, 2), (3, 4))


def test_disjoint_union_factorization(rng):
    for _ in range(50):
        m1 = rand_directed_pairing(rng, 6)
        m2 = rand_directed_pairing(rng, 6)
        m3 = rand_directed_pairing(rng, 4)
        m4 = rand_directed_pairing(rng, 4)
        lhs = pairing_sign(m1, m2) * pairing_sign(m3, m4)
        rhs = pairing_sign(disjoint_union(m1, m3), disjoint_union(m2, m4))
        assert lhs == rhs


def test_face_decomposition_identity_case():
    m = DirectedPairing(4, ((1, 2), (3, 4)))
    faces = face_decomposition(m, m)
    assert faces.total == 2
    assert all(not c.even for c in faces.cycles)
    assert (-1) ** faces.even_count == pairing_sign(m, m)


def test_face_decomposition_single_cycle():
    k = 4
    m1 = DirectedPairing(2 * k, tuple((2 * i + 1, 2 * i + 2) for i in range(k)))
    m2 = DirectedPairing(2 * k, tuple((2 * i + 2, (2 * i + 3 - 1) % (2 * k) + 1) for i in range(k)))
    faces = face_decomposition(m1, m2)
    assert faces.total == 1
    assert len(faces.cycles[0].nodes) == 2 * k


def test_face_decomposition_partitions_ground_set(rng):
    for _ in range(50):
        m1 = rand_directed_pairing(rng, 10)
        m2 = rand_directed_pairing(rng, 10)
        faces = face_decomposition(m1, m2)
        nodes = sorted(x for c in faces.cycles for x in c.nodes)
        assert nodes == list(range(1, 11))
        assert all(len(c.nodes) % 2 == 0 for c in faces.cycles)


def test_sign_equals_even_face_count(rng):
    for _ in range(200):
        m1 = rand_directed_pairing(rng, 10)
        m2 = rand_directed_pairing(rng, 10)
        faces = face_decomposition(m1, m2)
        assert pairing_sign(m1, m2) == (-1) ** faces.even_count


def test_face_decomposition_mismatch():
    with pytest.raises(ValueError, match="incompatible ground sets"):
        face_decomposition(
            DirectedPairing(4, ((1, 2), (3, 4))), DirectedPairing(2, ((1, 2),))
        )


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_strand_walk_of_perfect_matchings_counts_faces(k, seed):
    rng = random.Random(seed)
    m1 = rand_directed_pairing(rng, 2 * k)
    m2 = rand_directed_pairing(rng, 2 * k)
    paths, loops = strand_walk(partner_map(m1.pairs), partner_map(m2.pairs))
    assert paths == []
    assert loops == face_decomposition(m1, m2).total


@settings(max_examples=100, deadline=None)
@given(D=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_strand_walk_through_the_identity_keeps_the_diagram(D, seed):
    d = rand_diagram(random.Random(seed), D)
    identity = [(D + i, 2 * D + i) for i in range(1, D + 1)]
    paths, loops = strand_walk(partner_map(d.pairs), partner_map(identity))
    assert loops == 0
    # the free points are d's top row 1..D and the identity's far row 2D+1..3D
    pairs = tuple((a if a <= D else a - D, b if b <= D else b - D) for a, b in paths)
    assert BrauerDiagram(D, pairs) == d
