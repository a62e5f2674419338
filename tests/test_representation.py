import random
from fractions import Fraction

import pytest

from gradedtensor.brauer import (
    BrauerElement,
    beta_ij,
    casimir_ad,
    embed_group_algebra,
    eta_sign,
    from_permutation,
    identity_diagram,
    multiply,
    sigma_ij,
)
from gradedtensor.errors import CapExceededError
from gradedtensor.polynomial import Poly
from gradedtensor.representation import (
    DEFAULT_SIZE_CAP,
    GradedForm,
    TensorMap,
    ad_matrix,
    ad_nonzero_eigenvalues,
    decode_index,
    decompose_projector_as_propagator,
    diagram_to_map,
    element_to_map,
    encode_index,
    irreducible_projector,
    minimal_polynomial,
    symmetric_traceless_projector,
    traceless_element,
    traceless_projector,
)
from gradedtensor.young import (
    YoungDiagram,
    all_perms,
    gl_dimension_poly,
    partitions,
    symmetrizer_norm,
    transpose,
    young_symmetrizer,
)
from conftest import rand_diagram


def omega_entries(N):
    """Independent symplectic form entries for the tests."""
    half = N // 2
    lower = {}
    upper = {}
    for a in range(half):
        lower[(a, a + half)] = Fraction(1)
        lower[(a + half, a)] = Fraction(-1)
        upper[(a, a + half)] = Fraction(-1)
        upper[(a + half, a)] = Fraction(1)
    return lower, upper


def test_graded_form_validation():
    GradedForm(3, 0)
    GradedForm(4, 1)
    with pytest.raises(ValueError, match="symplectic form requires even N"):
        GradedForm(3, 1)
    form = GradedForm(4, 1)
    # g_{ac} g^{cd} = delta_a^d
    for a in range(4):
        for d in range(4):
            val = sum(form.lower_entry(a, c) * form.upper_entry(c, d) for c in range(4))
            assert val == (1 if a == d else 0)


def test_identity_diagram_maps_to_identity():
    for (N, b) in [(2, 0), (3, 0), (2, 1)]:
        form = GradedForm(N, b)
        for D in (1, 2, 3):
            assert diagram_to_map(identity_diagram(D), form) == TensorMap.identity(N, D)


def test_sigma_action_swaps_indices_entrywise():
    N, D = 2, 3
    form = GradedForm(N, 0)
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        m = diagram_to_map(sigma_ij(D, i, j), form)
        for col in range(N**D):
            b = decode_index(col, N, D)
            expected = list(b)
            expected[i - 1], expected[j - 1] = expected[j - 1], expected[i - 1]
            target = encode_index(tuple(expected), N)
            for row in range(N**D):
                assert m.entry(row, col) == (1 if row == target else 0)


@pytest.mark.parametrize("b", [0, 1])
def test_beta_action_is_g_contraction(b):
    N, D = 2, 2
    form = GradedForm(N, b)
    m = diagram_to_map(beta_ij(D, 1, 2), form)
    if b == 0:
        lower = {(a, a): Fraction(1) for a in range(N)}
        upper = dict(lower)
    else:
        lower, upper = omega_entries(N)
    for col in range(N**D):
        b1, b2 = decode_index(col, N, D)
        for row in range(N**D):
            a1, a2 = decode_index(row, N, D)
            expected = upper.get((a1, a2), Fraction(0)) * lower.get((b1, b2), Fraction(0))
            assert m.entry(row, col) == expected


@pytest.mark.parametrize("N,b", [(1, 0), (2, 0), (2, 1), (3, 0), (4, 1)])
def test_diagram_action_matches_its_definition(N, b):
    # entry (a, b) = prod delta(a_u, b_t) * prod g_{b_p b_m} * prod g^{a_l a_k} * eta^b,
    # read literally at every index pair, for diagrams with arcs on both rows
    form = GradedForm(N, b)
    rng = random.Random(1000 * N + b)
    for D in (2, 3, 4):
        diagrams = set()
        while len(diagrams) < D - 1:  # beta_12 is the only such diagram at D = 2
            d = rand_diagram(rng, D)
            if d.top_arcs() and d.bottom_arcs():
                diagrams.add(d)
        for d in sorted(diagrams, key=lambda d: d.pairs):
            through, tarcs, barcs = d.through_strands(), d.top_arcs(), d.bottom_arcs()
            expected = {}
            for col in range(N**D):
                top = decode_index(col, N, D)
                for row in range(N**D):
                    bottom = decode_index(row, N, D)
                    if any(bottom[u - D - 1] != top[t - 1] for t, u in through):
                        continue
                    v = Fraction(eta_sign(d)) ** b
                    for m, p in tarcs:
                        v *= form.lower_entry(top[p - 1], top[m - 1])
                    for k, l in barcs:
                        v *= form.upper_entry(bottom[l - D - 1], bottom[k - D - 1])
                    if v:
                        expected.setdefault(col, {})[row] = v
            assert diagram_to_map(d, form).cols == expected, d.pairs


@pytest.mark.parametrize("D,N,b", [(2, 3, 0), (2, 2, 1)])
def test_element_map_is_multiplicative(rng, D, N, b):
    form = GradedForm(N, b)
    for _ in range(30):
        e1 = BrauerElement.of_diagram(rand_diagram(rng, D), Fraction(1, 2)) + (
            BrauerElement.of_diagram(rand_diagram(rng, D), Poly((0, 1)))
        )
        e2 = BrauerElement.of_diagram(rand_diagram(rng, D), 2)
        lhs = element_to_map(multiply(e1, e2), form)
        rhs = element_to_map(e1, form).compose(element_to_map(e2, form))
        assert lhs == rhs


def test_zero_element_gives_zero_map():
    assert element_to_map(BrauerElement.zero(2), GradedForm(3, 0)).is_zero()


def test_a2_eigenvalues_are_n():
    for N in (2, 3, 4):
        assert ad_nonzero_eigenvalues(2, GradedForm(N, 0)) == {N}
    assert ad_nonzero_eigenvalues(2, GradedForm(2, 1)) == {-2}


def test_eigenvalue_signs_match_grading():
    for (D, N, b) in [(2, 3, 0), (3, 2, 0), (2, 2, 1), (3, 2, 1)]:
        eigs = ad_nonzero_eigenvalues(D, GradedForm(N, b))
        assert eigs
        for alpha in eigs:
            assert isinstance(alpha, int)
            assert alpha > 0 if b == 0 else alpha < 0


SPECTRUM_GRID = (
    [(D, N) for D in (2, 3) for N in range(2, 7)]
    + [(4, N) for N in (2, 3, 4)]
    + [(5, 2), (6, 2)]
)


@pytest.mark.parametrize(
    "D,N,b", [(D, N, b) for (D, N) in SPECTRUM_GRID for b in (0, 1) if not (b and N % 2)]
)
def test_closed_form_spectrum_matches_minimal_polynomial(D, N, b):
    form = GradedForm(N, b)
    p = minimal_polynomial(ad_matrix(D, form))
    bound = D * (D - 1) // 2 * N
    roots = {a for a in range(-bound, bound + 1) if a and p(a) == 0}
    # the spectrum is integral and A_D diagonalizable: simple integer roots only
    assert p.degree == len(roots) + (p(0) == 0)
    assert ad_nonzero_eigenvalues(D, form) == roots


def contraction_rank(N, D, form):
    """Rank of the stacked slot-pair contraction maps, independent of A_D."""
    rows = []
    for i in range(D):
        for j in range(i + 1, D):
            for rest in range(N ** (D - 2)):
                row = [Fraction(0)] * (N**D)
                rest_idx = decode_index(rest, N, D - 2)
                for a in range(N):
                    for c in range(N):
                        g = form.lower_entry(a, c)
                        if g == 0:
                            continue
                        full = list(rest_idx)
                        full.insert(i, a)
                        full.insert(j, c)
                        row[encode_index(tuple(full), N)] += g
                rows.append(row)
    from gradedtensor.representation import row_reduce

    return len(row_reduce(rows))


@pytest.mark.parametrize("N,b", [(3, 0), (4, 0), (2, 1)])
def test_kernel_of_a3_is_traceless_space(N, b):
    form = GradedForm(N, b)
    m = ad_matrix(3, form)
    trace_mode_rank = contraction_rank(N, 3, form)
    assert m.nullity() == N**3 - trace_mode_rank


def test_traceless_projector_d2_n3():
    form = GradedForm(3, 0)
    rep = traceless_projector(2, form)
    expected = element_to_map(BrauerElement.one(2) - casimir_ad(2).scaled(Fraction(1, 3)), form)
    assert rep.projector == expected
    assert rep.trace == 8
    assert rep.idempotent


@pytest.mark.parametrize("D,N,b", [(2, 2, 0), (2, 3, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1)])
def test_traceless_projector_properties(D, N, b):
    form = GradedForm(N, b)
    rep = traceless_projector(D, form)
    a = ad_matrix(D, form)
    assert rep.idempotent
    assert a.compose(rep.projector).is_zero()
    for p in all_perms(D):
        pm = diagram_to_map(from_permutation(p), form)
        assert pm.compose(rep.projector) == rep.projector.compose(pm)


def test_symmetric_traceless_agrees_with_universal_on_symmetric_subspace():
    # single factor 1 - A/N at D=2, composed with the symmetrizer
    form = GradedForm(3, 0)
    rep = symmetric_traceless_projector(2, form)
    c_s = embed_group_algebra(young_symmetrizer(YoungDiagram((2,))), 2).scaled(
        Fraction(1, 2)
    )
    universal = multiply(traceless_element(2, form), c_s)
    assert rep.projector == element_to_map(universal, form)


def test_symmetric_traceless_trace_d3_n4():
    rep = symmetric_traceless_projector(3, GradedForm(4, 0))
    assert rep.trace == 16  # dim Sym^3 R^4 minus one copy of R^4
    assert rep.idempotent


def test_symmetric_traceless_b1_trace_matches_negated_dimension():
    # trace at b=1, N=2 equals the b=0 trace formula at -N (grading sign is even)
    rep = symmetric_traceless_projector(2, GradedForm(2, 1))
    n = Fraction(-2)
    assert rep.trace == n * (n + 1) / 2 - 1
    assert rep.trace == 0


def test_symmetric_traceless_degenerate_n():
    with pytest.raises(ValueError, match="degenerate N"):
        symmetric_traceless_projector(3, GradedForm(2, 1))


def test_irreducible_projector_full_row_matches_symmetric_traceless():
    for D in (2, 3):
        form = GradedForm(4, 0)
        lhs = irreducible_projector(YoungDiagram((D,)), form)
        rhs = symmetric_traceless_projector(D, form)
        assert lhs.projector == rhs.projector
        assert lhs.idempotent


def test_irreducible_projector_full_column_is_plain_antisymmetrizer():
    for D in (2, 3):
        form = GradedForm(4, 0)
        rep = irreducible_projector(YoungDiagram((1,) * D), form)
        lam = YoungDiagram((1,) * D)
        c = embed_group_algebra(young_symmetrizer(lam), D).scaled(
            1 / symmetrizer_norm(lam)
        )
        assert rep.projector == element_to_map(c, form)
        assert ad_matrix(D, form).compose(rep.projector).is_zero()


def test_irreducible_projector_b1_column_image_is_symmetric():
    form = GradedForm(2, 1)
    rep = irreducible_projector(YoungDiagram((1, 1)), form)
    assert rep.idempotent
    assert ad_matrix(2, form).compose(rep.projector).is_zero()
    # at b=1 the signed representation turns the antisymmetrizer into the
    # plain index symmetrizer
    swap_plain = diagram_to_map(sigma_ij(2, 1, 2), GradedForm(2, 0))
    assert swap_plain.compose(rep.projector) == rep.projector


def test_decompose_row_two():
    el = decompose_projector_as_propagator(YoungDiagram((2,)), GradedForm(3, 0))
    got = {d.pairs: c.constant_value() for d, c in el.terms.items()}
    assert got == {
        ((1, 3), (2, 4)): Fraction(1, 2),
        ((1, 4), (2, 3)): Fraction(1, 2),
        ((1, 2), (3, 4)): Fraction(-1, 3),
    }


def test_decompose_column_two():
    el = decompose_projector_as_propagator(YoungDiagram((1, 1)), GradedForm(3, 0))
    got = {d.pairs: c.constant_value() for d, c in el.terms.items()}
    assert got == {
        ((1, 3), (2, 4)): Fraction(1, 2),
        ((1, 4), (2, 3)): Fraction(-1, 2),
    }


@pytest.mark.parametrize("b", [0, 1])
def test_decompose_round_trip_all_partitions_up_to_3(b):
    form = GradedForm(4, b)
    for d in (2, 3):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            el = decompose_projector_as_propagator(lam, form)
            assert element_to_map(el, form) == irreducible_projector(lam, form).projector


def test_decompose_size_cap():
    with pytest.raises(CapExceededError):
        decompose_projector_as_propagator(YoungDiagram((5,)), GradedForm(2, 0))


def test_trace_of_symmetrizer_matches_dimension_poly():
    for d in (1, 2, 3):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            c = embed_group_algebra(young_symmetrizer(lam), d).scaled(
                1 / symmetrizer_norm(lam)
            )
            for N in (2, 3, 4, 5):
                m = element_to_map(c, GradedForm(N, 0))
                assert m.trace() == gl_dimension_poly(lam)(N)


def test_trace_of_symmetrizer_at_b1_realizes_duality():
    # the signed representation exchanges symmetrization and
    # antisymmetrization: the image dimension is the transposed diagram's,
    # equivalently (-1)^|lambda| times the dimension polynomial at -N
    for d in (1, 2, 3):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            c = embed_group_algebra(young_symmetrizer(lam), d).scaled(
                1 / symmetrizer_norm(lam)
            )
            for N in (2, 4):
                m = element_to_map(c, GradedForm(N, 1))
                assert m.trace() == gl_dimension_poly(transpose(lam))(N)
                assert m.trace() == (-1) ** d * gl_dimension_poly(lam)(-N)


def test_size_cap_enforced():
    with pytest.raises(CapExceededError):
        diagram_to_map(identity_diagram(3), GradedForm(3, 0), size_cap=10)
    with pytest.raises(CapExceededError):
        traceless_projector(2, GradedForm(5, 0), size_cap=20)


def test_spectrum_builds_no_tensor_map():
    # N^D = 46656 is above DEFAULT_SIZE_CAP; the closed form needs no map
    form = GradedForm(6, 0)
    assert form.N**6 > DEFAULT_SIZE_CAP
    eigs = ad_nonzero_eigenvalues(6, form)
    # lambda = (6), mu = empty, f = 3: c((6)) + 3 (N - 1) = 15 + 15
    assert 30 in eigs


def test_dropped_eigenvalue_fails_traceless_check(monkeypatch):
    import gradedtensor.representation as rep_mod

    full = rep_mod.ad_nonzero_eigenvalues

    def drop_one(*args):
        return set(sorted(full(*args))[1:])

    monkeypatch.setattr(rep_mod, "ad_nonzero_eigenvalues", drop_one)
    lam, form = YoungDiagram((2,)), GradedForm(3, 0)
    with pytest.raises(ArithmeticError):
        irreducible_projector(lam, form)
    with pytest.raises(ArithmeticError):
        decompose_projector_as_propagator(lam, form)
