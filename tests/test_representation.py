import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gradedtensor.brauer import (
    BrauerElement,
    beta_ij,
    casimir_ad,
    diagram_basis,
    embed_group_algebra,
    eta_sign,
    from_permutation,
    identity_diagram,
    multiply,
    partners,
    sigma_ij,
)
from gradedtensor.errors import CapExceededError
from gradedtensor.polynomial import Poly
from gradedtensor.representation import (
    DIAGRAM_CAP,
    SIZE_CAP,
    GradedForm,
    TensorMap,
    ad_matrix,
    ad_nonzero_eigenvalues,
    decode_index,
    decompose_projector_as_propagator,
    diagram_to_map,
    element_to_map,
    _ElementAtZ0,
    _irreducible,
    _numerator_map,
    _report,
    _symmetric_traceless,
    _traceless,
    encode_index,
    irreducible_element,
    irreducible_projector,
    minimal_polynomial,
    symmetric_traceless_element,
    symmetric_traceless_projector,
    traceless_component_occurs,
    traceless_element,
    traceless_projector,
)
from gradedtensor.young import (
    YoungDiagram,
    all_perms,
    gl_dimension_poly,
    hook_length,
    partitions,
    symmetrizer_norm,
    transpose,
    young_symmetrizer,
)
from conftest import diagrams, permuted_above, permuted_below, rand_diagram


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


@pytest.mark.parametrize("D,N,b", [(2, 3, 0), (2, 2, 1), (3, 3, 0), (3, 2, 1)])
def test_element_map_is_multiplicative(rng, D, N, b):
    # coprime denominators 2 and 3 on the two factors
    form = GradedForm(N, b)
    for _ in range(30):
        e1 = BrauerElement.of_diagram(rand_diagram(rng, D), Fraction(1, 2)) + (
            BrauerElement.of_diagram(rand_diagram(rng, D), Poly((0, 1)))
        )
        e2 = BrauerElement.of_diagram(rand_diagram(rng, D), 2) + (
            BrauerElement.of_diagram(rand_diagram(rng, D), Fraction(1, 3))
        )
        lhs = element_to_map(multiply(e1, e2), form)
        rhs = element_to_map(e1, form).compose(element_to_map(e2, form))
        assert lhs == rhs


def test_maps_over_different_denominators_compare_equal():
    form = GradedForm(3, 0)
    m = element_to_map(traceless_element(2, form), form)  # 1 - A/3
    assert m.den == 3
    scaled = TensorMap(3, 2, {j: {i: 5 * v for i, v in col.items()} for j, col in m.cols.items()}, 15)
    assert scaled == m and m == scaled
    assert scaled.dense_rows() == m.dense_rows()
    assert (scaled.trace(), scaled.entry(0, 0)) == (m.trace(), m.entry(0, 0)) == (8, Fraction(2, 3))
    assert m.compose(m).den == 9 and m.compose(m) == m
    nudged = TensorMap(3, 2, {**scaled.cols, 0: {**scaled.cols[0], 0: scaled.cols[0][0] + 1}}, 15)
    assert nudged != m and m != nudged


def test_minimal_polynomial_reads_the_denominator():
    form = GradedForm(3, 0)
    m = element_to_map(traceless_element(2, form), form)
    assert m.den == 3
    assert minimal_polynomial(m) == Poly((0, -1, 1))  # x^2 - x, not that of 3P


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
    assert 28**3 > SIZE_CAP and 145**2 > SIZE_CAP
    with pytest.raises(CapExceededError):
        diagram_to_map(identity_diagram(3), GradedForm(28, 0))
    with pytest.raises(CapExceededError):
        traceless_projector(2, GradedForm(145, 0))


def test_spectrum_builds_no_tensor_map():
    # N^D = 46656 is above SIZE_CAP; the closed form needs no map
    form = GradedForm(6, 0)
    assert form.N**6 > SIZE_CAP
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


def test_wrong_normalisation_fails_idempotence_check(monkeypatch):
    # the rank is read off the trace, which only an idempotent makes valid
    import gradedtensor.representation as rep_mod

    norm = rep_mod.symmetrizer_norm
    monkeypatch.setattr(rep_mod, "symmetrizer_norm", lambda lam: 2 * norm(lam))
    lam, form = YoungDiagram((2, 1)), GradedForm(3, 0)
    with pytest.raises(ArithmeticError, match="not idempotent"):
        irreducible_projector(lam, form)
    with pytest.raises(ArithmeticError, match="not idempotent"):
        decompose_projector_as_propagator(lam, form)


# -- the integer builders against the symbolic Brauer products ----------------


def reference_traceless_element(D, form):
    """The product over the nonzero eigenvalues alpha of (1 - A/alpha),
    by general Brauer products with coefficients polynomial in z."""
    one = BrauerElement.one(D)
    if D < 2:
        return one
    a = casimir_ad(D)
    out = one
    for alpha in sorted(ad_nonzero_eigenvalues(D, form)):
        out = multiply(out, one + a.scaled(Fraction(-1, alpha)))
    return out


def reference_symmetric_traceless_element(D, form):
    one = BrauerElement.one(D)
    if D < 2:
        return one
    a = casimir_ad(D)
    z0 = form.z_value
    out = one
    for f in range(1, D // 2 + 1):
        denom = (z0 + 2 * (D - f - 1)) * f
        if denom == 0:
            raise ValueError(f"degenerate N: denominator vanishes at factor f={f}")
        out = multiply(out, one + a.scaled(-1 / denom))
    return out


def reference_irreducible_element(lam, traceless):
    c = embed_group_algebra(young_symmetrizer(lam), lam.size)
    return multiply(c.scaled(1 / symmetrizer_norm(lam)), traceless)


def at_z0(e, form):
    """An element's coefficients at z0, zeros dropped."""
    values = {d: c(form.z_value) for d, c in e.terms.items()}
    return {d: c for d, c in values.items() if c}


def assert_symmetric_traceless_matches(D, form):
    try:
        expected = at_z0(reference_symmetric_traceless_element(D, form), form)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate N"):
            symmetric_traceless_element(D, form)
    else:
        assert at_z0(symmetric_traceless_element(D, form), form) == expected


GRADED_FORMS = [(N, b) for N in range(1, 7) for b in (0, 1) if not (b and N % 2)]


@pytest.mark.parametrize("N,b", GRADED_FORMS)
def test_integer_builders_match_symbolic_products(N, b):
    form = GradedForm(N, b)
    for D in (1, 2, 3, 4):
        traceless = reference_traceless_element(D, form)
        assert at_z0(traceless_element(D, form), form) == at_z0(traceless, form)
        assert_symmetric_traceless_matches(D, form)
        for rows in partitions(D):
            lam = YoungDiagram(rows)
            expected = at_z0(reference_irreducible_element(lam, traceless), form)
            assert at_z0(irreducible_element(lam, form), form) == expected, rows


@pytest.mark.parametrize("N,b", [(1, 0), (2, 0), (3, 0), (2, 1)])
def test_integer_builders_match_symbolic_products_at_d5(N, b):
    form = GradedForm(N, b)
    expected = at_z0(reference_traceless_element(5, form), form)
    assert at_z0(traceless_element(5, form), form) == expected
    assert_symmetric_traceless_matches(5, form)


@pytest.mark.parametrize("N,b", GRADED_FORMS)
def test_symmetric_traceless_projector_is_the_formula_times_the_symmetrizer(N, b):
    # the builder applies c_(D) below the formula T; since T commutes with
    # c_(D), its element is the product T * c_(D) / D! of the reference algebra
    form = GradedForm(N, b)
    checked = 0
    for D in (2, 3, 4):
        try:
            formula = symmetric_traceless_element(D, form)
        except ValueError:  # degenerate N, e.g. D = 3 at Sp(2)
            continue
        c = embed_group_algebra(young_symmetrizer(YoungDiagram((D,))), D)
        expected = at_z0(multiply(formula, c.scaled(Fraction(1, math.factorial(D)))), form)
        assert at_z0(symmetric_traceless_projector(D, form).element, form) == expected, D
        checked += 1
    assert checked


def binomial(n, k):
    return math.comb(n, k) if k >= 0 else 0


def one_row_or_column_dimension(shape, k, N, b):
    """Dimension of the O(N) (b=0) or Sp(N) (b=1) irrep of shape (k) or
    (1^k) inside V^(tensor k), by the closed forms for symmetric and
    antisymmetric traceless tensors."""
    if shape == "row" and b == 0:
        return binomial(N + k - 1, k) - binomial(N + k - 3, k - 2)
    if shape == "column" and b == 0:
        return binomial(N, k)
    if shape == "row":  # b = 1: the signed action turns (k) into traceless (1^k)
        return binomial(N, k) - binomial(N, k - 2) if 2 * k <= N else 0
    return binomial(N + k - 1, k)  # (1^k) at b = 1: symmetric, no trace to remove


@pytest.mark.parametrize(
    "shape,k,N,b",
    [
        (shape, k, N, b)
        for shape in ("row", "column")
        for k in range(1, 6)
        for (N, b) in GRADED_FORMS
        if N**k <= 256
    ],
)
def test_rank_matches_closed_form_dimension(shape, k, N, b):
    lam = YoungDiagram((k,) if shape == "row" else (1,) * k)
    rep = irreducible_projector(lam, GradedForm(N, b))
    assert rep.rank == one_row_or_column_dimension(shape, k, N, b)


def el_samra_king_dimension(lam, N, b):
    """Dimension of the O(N) irrep [lam] (b=0) or the Sp(N) irrep <lam>
    (b=1), by El Samra & King, J. Phys. A 12 (1979) 2317: the product over
    the boxes (i, j) of lam of (N + r_ij) / h_ij, h_ij the hook length and

        O(N):  r_ij = lam_i + lam_j - i - j          (i <= j)
               r_ij = -lam'_i - lam'_j + i + j - 2   (i > j)
        Sp(N): r_ij = lam_i + lam_j - i - j + 2      (i > j)
               r_ij = -lam'_i - lam'_j + i + j       (i <= j)

    with lam_i = 0 past the last row.  It holds for lam'_1 + lam'_2 <= N
    (O(N)) and lam'_1 <= N/2 (Sp(N))."""
    cols = transpose(lam).rows
    row = lambda i: lam.rows[i - 1] if i <= len(lam.rows) else 0
    col = lambda j: cols[j - 1] if j <= len(cols) else 0
    out = Fraction(1)
    for i, j in lam.boxes():
        if b == 0:
            r = row(i) + row(j) - i - j if i <= j else -col(i) - col(j) + i + j - 2
        else:
            r = row(i) + row(j) - i - j + 2 if i > j else -col(i) - col(j) + i + j
        out *= Fraction(N + r, hook_length(lam, i, j))
    return out


def smallest_stable_dimension(lam, b):
    """The least N at which el_samra_king_dimension holds for the irrep
    that lam's projector reaches: O(N) [lam] at b = 0 and, since the
    signed action turns c_lam into c_lam', Sp(N) <lam'> at b = 1."""
    if b:
        return 2 * lam.rows[0]
    return sum(transpose(lam).rows[:2])


def test_el_samra_king_matches_one_row_and_column_dimensions():
    for N, b in [(N, b) for N in range(1, 13) for b in (0, 1) if not (b and N % 2)]:
        for shape in ("row", "column"):
            for k in range(1, 6):
                lam = YoungDiagram((k,) if shape == "row" else (1,) * k)
                if N >= smallest_stable_dimension(lam, b):
                    irrep = transpose(lam) if b else lam
                    expected = one_row_or_column_dimension(shape, k, N, b)
                    assert el_samra_king_dimension(irrep, N, b) == expected, (shape, k, N, b)


@pytest.mark.parametrize("b", [0, 1])
def test_rank_matches_el_samra_king_dimension(b):
    # at the least N where the closed form holds, for every lam |- 2..5
    # with N^|lam| under the size cap: at b = 1 that leaves out (5) and
    # (4,1), whose Sp(N) irreps need N = 10 and 8
    checked = 0
    for k in range(2, 6):
        for rows in partitions(k):
            lam = YoungDiagram(rows)
            N = smallest_stable_dimension(lam, b)
            if N**k > SIZE_CAP:
                continue
            rep = irreducible_projector(lam, GradedForm(N, b))
            irrep = transpose(lam) if b else lam
            assert rep.rank == el_samra_king_dimension(irrep, N, b), (rows, N)
            checked += 1
    assert checked == (15 if b else 17)


# -- the factored symmetrizer and the traceless check in B_D -----------------


def by_partners(x):
    """x's numerators keyed by partner tuple, through its diagram basis."""
    return {x.basis.partners[k]: c for k, c in x.terms.items()}


def reference_symmetrized(x, lam, permuted):
    """(terms, den) of c_lambda / n_lambda on the side of `permuted`, one
    relabeling of every diagram per term sigma of c_lambda, keyed by
    partner tuple."""
    out = {}
    for sigma, c in young_symmetrizer(lam).terms.items():
        for p, n in by_partners(x).items():
            q = permuted(p, sigma)
            out[q] = out.get(q, 0) + int(c) * n
    return {p: c for p, c in out.items() if c}, x.den * int(symmetrizer_norm(lam))


def assert_factored_symmetrizer_matches(D, form):
    # c_lambda is applied below only; T commutes with it, so the one-sided
    # product equals both the below and the above sum over permutations
    for rows in partitions(D):
        lam = YoungDiagram(rows)
        x = _traceless(D, form)
        below = reference_symmetrized(x, lam, permuted_below)
        above = reference_symmetrized(x, lam, permuted_above)
        x.symmetrized(lam)
        assert (by_partners(x), x.den) == below, rows
        assert (by_partners(x), x.den) == above, rows


@pytest.mark.parametrize("N,b", [(2, 0), (2, 1), (3, 0), (4, 1)])
@pytest.mark.parametrize("D", [2, 3, 4])
def test_factored_symmetrizer_matches_the_sum_over_permutations(D, N, b):
    assert_factored_symmetrizer_matches(D, GradedForm(N, b))


def test_factored_symmetrizer_matches_the_sum_over_permutations_at_d5():
    assert_factored_symmetrizer_matches(5, GradedForm(2, 1))


def random_elements(D, form, seed):
    """Four elements at z0 with four random diagrams each, not projectors."""
    rng = random.Random(seed)
    for _ in range(4):
        x = _ElementAtZ0(D, form)
        diagrams = [partners(rand_diagram(rng, D)) for _ in range(4)]
        x.terms = {x.basis.number(p): rng.choice((-3, -2, -1, 1, 2, 3)) for p in diagrams}
        yield x


@pytest.mark.parametrize("N,b", [(2, 0), (3, 0), (2, 1), (4, 1)])
@pytest.mark.parametrize("D", [2, 3, 4])
def test_algebra_traceless_check_multiplies_a_below(D, N, b):
    # A * e in B_D at z0 maps to the composite A.P, on elements that are not
    # projectors; the check's e * A equals A * e (see
    # test_times_ad_is_a_times_the_element_for_every_builder), so a
    # zero product implies A.P = 0
    form = GradedForm(N, b)
    for x in random_elements(D, form, 7 * D + 3 * N + b):
        product = multiply(casimir_ad(D), x.element())
        expected = ad_matrix(D, form).compose(element_to_map(x.element(), form))
        assert element_to_map(product, form) == expected


@pytest.mark.parametrize("N,b", [(2, 0), (3, 0), (2, 1), (4, 1)])
@pytest.mark.parametrize("D", [2, 3, 4])
def test_algebra_traceless_check_multiplies_a_above(D, N, b):
    # the rows' e * A maps to the composite P.A on elements that are not
    # projectors, and so do not commute with A
    form = GradedForm(N, b)
    for x in random_elements(D, form, 11 * D + 5 * N + b):
        expected = element_to_map(x.element(), form).compose(ad_matrix(D, form))
        assert element_to_map(x.times_ad().element(), form) == expected


def builder_elements(form):
    """Every builder's element at the form: T for D = 2..4, the symmetric
    traceless product where no factor's alpha is 0, and c_lambda * T for
    every lambda of 2..4 boxes."""
    for D in range(2, 5):
        yield _traceless(D, form)
        try:
            yield _symmetric_traceless(D, form)
        except ValueError:  # degenerate N, e.g. D = 3 at Sp(2)
            pass
        for rows in partitions(D):
            yield _irreducible(YoungDiagram(rows), form)


def test_times_ad_is_a_times_the_element_for_every_builder():
    # the report checks e * A; it certifies A.P = 0 because e * A = A * e
    # exactly in B_D: A commutes with every permutation and with itself
    count = 0
    for N, b in [(2, 0), (3, 0), (4, 0), (2, 1), (4, 1), (6, 1)]:
        form = GradedForm(N, b)
        for x in builder_elements(form):
            a_e = multiply(casimir_ad(x.D), x.element())
            at_z0 = BrauerElement(x.D, {d: c(form.z_value) for d, c in a_e.terms.items()})
            assert x.times_ad().element() == at_z0, (N, b, x.D)
            count += 1
    assert count == 93


def checked_report(rows, N, b):
    """The report of the checked B_D build, which `irreducible_projector`
    skips for a zero component: the route of `ProjectorReport.element`,
    `--decompose` and model projectors, where the fallback map is built."""
    lam = YoungDiagram(rows)
    return _report(_irreducible(lam, GradedForm(N, b)), lam)


def count_maps(monkeypatch):
    """Record the numerators and denominator of every map filled in
    representation."""
    import gradedtensor.representation as rep_mod

    made = []
    full = rep_mod._numerator_map

    def counted(basis, numerators, den, form):
        made.append((dict(numerators), den))
        return full(basis, numerators, den, form)

    monkeypatch.setattr(rep_mod, "_numerator_map", counted)
    return made


@pytest.mark.parametrize(
    "rows,N,b,calls", [((2, 1), 3, 0, 0), ((2, 2), 2, 0, 1), ((4,), 2, 1, 1)]
)
def test_tensor_map_of_a_only_where_the_algebra_check_fails(monkeypatch, rows, N, b, calls):
    # the one map a fallback report builds is that of e * A's numerators,
    # not of e or of A
    made = count_maps(monkeypatch)
    rep = checked_report(rows, N, b)
    assert rep.idempotent
    e_ad = rep._snapshot.times_ad()
    assert made == [(e_ad.terms, e_ad.den)] * calls


FALLBACK_CASES = [((2, 2), 2, 0), ((4,), 2, 1)]


@pytest.mark.parametrize("rows,N,b", FALLBACK_CASES)
def test_fallback_with_a_nonzero_map_of_a_e_is_not_traceless(monkeypatch, rows, N, b):
    import gradedtensor.representation as rep_mod

    def nonzero(basis, numerators, den, form):
        return TensorMap.identity(N, basis.D)

    monkeypatch.setattr(rep_mod, "_numerator_map", nonzero)
    with pytest.raises(ArithmeticError, match="not traceless"):
        checked_report(rows, N, b)


@pytest.mark.parametrize(
    "N,b,shapes",
    [
        (2, 0, [rows for n in range(2, 5) for rows in partitions(n)]),
        (2, 1, [rows for n in range(2, 5) for rows in partitions(n)]),
        (4, 1, [(5,), (4, 1), (3, 2)]),
    ],
)
def test_fallback_map_of_the_numerators_is_the_map_of_the_element(N, b, shapes):
    # the map `_report` fills from e * A's numerators equals the one
    # `element_to_map` builds from the `BrauerElement`
    form = GradedForm(N, b)
    for rows in shapes:
        lam = YoungDiagram(rows)
        e_ad = _irreducible(lam, form).times_ad()
        numerator_map = _numerator_map(e_ad.basis, e_ad.terms, e_ad.den, form)
        assert numerator_map == element_to_map(e_ad.element(), form), rows
        if N == 2:  # and so does the report's map P
            rep = irreducible_projector(lam, form)
            assert rep.projector == element_to_map(rep.element, form), rows


def test_fallback_past_the_map_work_cap_is_refused(monkeypatch):
    # (4) at Sp(2): e * A has 81 terms of N^D = 16 entries each
    import gradedtensor.representation as rep_mod

    lam, form = YoungDiagram((4,)), GradedForm(2, 1)
    assert len(_irreducible(lam, form).times_ad().terms) == 81
    monkeypatch.setattr(rep_mod, "MAP_WORK_CAP", 81 * 16)
    assert checked_report((4,), 2, 1).rank == 0
    monkeypatch.setattr(rep_mod, "MAP_WORK_CAP", 81 * 16 - 1)
    refuse_maps(monkeypatch)
    with pytest.raises(CapExceededError, match="1296 entries"):
        checked_report((4,), 2, 1)


@pytest.mark.parametrize("rows,N,b", FALLBACK_CASES)
def test_fallback_checks_the_symmetrizer_for_idempotence(monkeypatch, rows, N, b):
    # a fallback report takes the same idempotence check as any other
    monkeypatch.setattr(_ElementAtZ0, "fixed_by_symmetrizer", lambda self, lam: False)
    with pytest.raises(ArithmeticError, match="not idempotent"):
        checked_report(rows, N, b)


# -- zero components, read off the occurrence rule ------------------------------


def test_occurrence_rule_matches_the_rank_of_the_build():
    # the rule against the checked B_D build, not against
    # irreducible_projector, which reads it: every lambda |- 2..5 at every
    # (N, b) under SIZE_CAP, and lambda |- 6 at N = 2 at both gradings; the
    # one build past MAP_WORK_CAP, (5) at Sp(6), is counted apart
    cases = [
        (rows, N, b)
        for D in range(2, 6)
        for N in range(1, math.isqrt(SIZE_CAP) + 1)
        for b in (0, 1)
        if N**D <= SIZE_CAP and not (b and N % 2)
        for rows in partitions(D)
    ]
    cases += [(rows, 2, b) for b in (0, 1) for rows in partitions(6)]
    counts = {"occurs": 0, "zero": 0, "capped": 0}
    for rows, N, b in cases:
        try:
            rank = checked_report(rows, N, b).rank
        except CapExceededError:
            assert (rows, N, b) == ((5,), 6, 1)
            counts["capped"] += 1
            continue
        occurs = traceless_component_occurs(rows, GradedForm(N, b))
        assert (rank > 0) == occurs, (rows, N, b, rank)
        counts["occurs" if occurs else "zero"] += 1
    assert counts == {"occurs": 651, "zero": 82, "capped": 1}


def test_e_times_a_is_zero_in_b_d_for_every_occurring_component():
    # for every occurring lambda |- 2..5 at every (N, b) under SIZE_CAP, e * A
    # is zero in B_D itself, so `irreducible_projector` never builds its map:
    # `_report`'s map is reached only from the traceless builders and from a
    # zero component's checked route
    cases = 0
    for D in range(2, 6):
        for N in range(1, math.isqrt(SIZE_CAP) + 1):
            for b in (0, 1):
                if N**D > SIZE_CAP or b and N % 2:
                    continue
                form = GradedForm(N, b)
                for rows in partitions(D):
                    if traceless_component_occurs(rows, form):
                        assert not _irreducible(YoungDiagram(rows), form).times_ad().terms, (rows, N, b)
                        cases += 1
    assert cases == 649


@pytest.mark.parametrize("N,b", GRADED_FORMS)
def test_zero_report_is_the_zero_map_of_the_irreducible_element(N, b):
    form = GradedForm(N, b)
    zeros = 0
    for n in range(2, 5):
        for rows in partitions(n):
            if traceless_component_occurs(rows, form):
                continue
            lam = YoungDiagram(rows)
            rep = irreducible_projector(lam, form)
            assert (rep.trace, rep.rank, rep.idempotent) == (0, 0, True)
            assert rep.projector == TensorMap(N, n, {})
            assert rep.element == irreducible_element(lam, form)
            zeros += 1
    # all ten shapes at O(1); at O(2) all but one row and (1,1); at Sp(2)
    # all but one column; (2,2), (2,1,1) and (1^4) at O(3); (3), (4) and
    # (3,1) at Sp(4); (4) at Sp(6)
    assert zeros == {(1, 0): 10, (2, 0): 6, (2, 1): 7, (3, 0): 3, (4, 1): 3, (6, 1): 1}.get(
        (N, b), 0
    )


class DiagramsNumbered(Exception):
    pass


def refuse_diagrams(monkeypatch):
    """Make numbering the diagrams of any B_D in representation raise
    DiagramsNumbered."""
    import gradedtensor.representation as rep_mod

    def refuse(D):
        raise DiagramsNumbered

    monkeypatch.setattr(rep_mod, "diagram_basis", refuse)


def test_zero_component_builds_no_diagram(monkeypatch, capsys):
    from gradedtensor.cli import run

    refuse_diagrams(monkeypatch)
    assert run(["projector", "4,3", "--N", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["trace = 0", "rank = 0", "idempotent = True"]
    rep = irreducible_projector(YoungDiagram((4, 3)), GradedForm(3, 0))
    assert rep.projector.is_zero()
    with pytest.raises(DiagramsNumbered):  # the element is built, and checked, on access
        rep.element


def test_diagram_cap_is_checked_before_any_diagram_is_numbered(monkeypatch):
    # the cap is all of B_7; (8) occurs at O(2), while at Sp(2) it does not
    assert DIAGRAM_CAP == math.prod(range(1, 14, 2))
    refuse_diagrams(monkeypatch)
    with pytest.raises(CapExceededError, match="2027025 diagrams"):
        irreducible_projector(YoungDiagram((8,)), GradedForm(2, 0))
    assert irreducible_projector(YoungDiagram((8,)), GradedForm(2, 1)).rank == 0
    with pytest.raises(CapExceededError, match="2027025 diagrams"):
        traceless_projector(8, GradedForm(2, 0))


# -- reports read in B_D at z0 against the map route ---------------------------


def one_term(d, form):
    x = _ElementAtZ0(d.D, form)
    x.terms = {x.basis.number(partners(d)): 1}
    return x


@settings(max_examples=100, deadline=None)
@given(d=diagrams(max_D=5))
def test_closed_form_diagram_trace_matches_the_map(d):
    for N, b in [(1, 0), (2, 0), (3, 0), (2, 1), (4, 1)]:
        form = GradedForm(N, b)
        assert one_term(d, form).trace() == diagram_to_map(d, form).trace(), (N, b)


def assert_report_matches_its_map(rep):
    m = element_to_map(rep.element, rep.form)
    assert (rep.trace, rep.rank, rep.idempotent) == (m.trace(), m.trace(), m.is_idempotent())


@pytest.mark.parametrize("N,b", GRADED_FORMS)
def test_algebra_report_matches_the_map_route(N, b):
    form = GradedForm(N, b)
    top = 6 if N <= 3 else 5
    for n in range(2, top):
        for rows in partitions(n):
            assert_report_matches_its_map(irreducible_projector(YoungDiagram(rows), form))
    if (N, b) == (4, 1):  # the fallback cases at D = 5 under the size cap
        for rows in [(5,), (4, 1), (3, 2)]:
            assert_report_matches_its_map(irreducible_projector(YoungDiagram(rows), form))
        assert_report_matches_its_map(traceless_projector(5, form))
    for D in range(1, top):
        assert_report_matches_its_map(traceless_projector(D, form))
        try:
            rep = symmetric_traceless_projector(D, form)
        except ValueError:  # degenerate N, e.g. D = 3 at Sp(2)
            continue
        assert_report_matches_its_map(rep)


class MapBuilt(Exception):
    pass


def refuse_maps(monkeypatch):
    """Make building any tensor map of a Brauer element raise MapBuilt."""
    import gradedtensor.representation as rep_mod

    def refuse(*args):
        raise MapBuilt

    monkeypatch.setattr(rep_mod, "element_to_map", refuse)
    monkeypatch.setattr(rep_mod, "_numerator_map", refuse)


@pytest.mark.parametrize("rows,N,rank", [((5,), 4, 36), ((3, 2), 4, 24), ((6,), 3, 13)])
def test_algebra_report_builds_no_tensor_map(monkeypatch, rows, N, rank):
    refuse_maps(monkeypatch)
    rep = irreducible_projector(YoungDiagram(rows), GradedForm(N, 0))
    assert (rep.trace, rep.rank, rep.idempotent) == (rank, rank, True)


def test_unfaithful_algebra_falls_back_to_the_map(monkeypatch):
    # e * A != 0 in B_D for (2,2) at O(2), although A.P = 0 on the tensors
    refuse_maps(monkeypatch)
    with pytest.raises(MapBuilt):
        checked_report((2, 2), 2, 0)


# -- the report's element, built only when it is read ----------------------------


def count_element_builds(monkeypatch):
    """Count the conversions of an `_ElementAtZ0` to a `BrauerElement`."""
    made = []
    full = _ElementAtZ0.element

    def counted(self):
        made.append(self)
        return full(self)

    monkeypatch.setattr(_ElementAtZ0, "element", counted)
    return made


@pytest.mark.parametrize("argv", [["2,1", "--N", "3"], ["2", "--N", "4", "--b", "1"]])
@pytest.mark.parametrize("decompose,builds", [(False, 0), (True, 1)])
def test_projector_builds_its_element_only_to_decompose(
    monkeypatch, capsys, argv, decompose, builds
):
    from gradedtensor.cli import run

    made = count_element_builds(monkeypatch)
    assert run(["projector", *argv, "--json"] + (["--decompose"] if decompose else [])) == 0
    assert ("decomposition" in json.loads(capsys.readouterr().out)) == decompose
    assert len(made) == builds


@pytest.mark.parametrize("N,b", GRADED_FORMS)
def test_report_element_is_the_irreducible_element(N, b):
    form = GradedForm(N, b)
    for n in range(2, 5):
        for rows in partitions(n):
            lam = YoungDiagram(rows)
            assert irreducible_projector(lam, form).element == irreducible_element(lam, form)


@pytest.mark.parametrize("rows,N,b", FALLBACK_CASES)
def test_fallback_report_is_unchanged(monkeypatch, rows, N, b):
    made = count_element_builds(monkeypatch)
    rep = checked_report(rows, N, b)
    assert (rep.trace, rep.rank, rep.idempotent) == (0, 0, True)
    # the maps of e * A and of e are filled from numerators: neither is converted
    assert rep.projector.is_zero()
    assert made == []


def test_report_keeps_a_snapshot_of_its_element(monkeypatch):
    import gradedtensor.representation as rep_mod

    built = []
    full = rep_mod._irreducible

    def kept(lam, form):
        built.append(full(lam, form))
        return built[-1]

    monkeypatch.setattr(rep_mod, "_irreducible", kept)
    lam, form = YoungDiagram((2, 1)), GradedForm(3, 0)
    rep = irreducible_projector(lam, form)
    expected = rep.element
    built[0].den *= 2  # the builder changes after the report
    assert rep.element == expected == irreducible_element(lam, form)
    assert rep == irreducible_projector(lam, form)  # the snapshot is left out of equality


# -- the diagram basis, shared by every build at one D --------------------------


def projector_pool_forms():
    """The (N, b) of the bench projector pool, in pool order."""
    pool = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pools" / "projector.json"
    forms = []
    for job in json.loads(pool.read_text())["jobs"]:
        argv = job["argv"]
        form = (int(argv[argv.index("--N") + 1]), int(argv[argv.index("--b") + 1]))
        if form not in forms:
            forms.append(form)
    return forms


def test_shared_rows_leak_no_state(capsys):
    from gradedtensor.cli import run

    def build(rows, N, b):
        rep = checked_report(rows, N, b)
        argv = ["projector", ",".join(map(str, rows)), "--N", str(N), "--b", str(b)]
        assert run(argv + ["--decompose", "--json"]) == 0
        return rep, (rep.trace, rep.rank, rep.element, capsys.readouterr().out)

    shapes = [rows for n in range(2, 5) for rows in partitions(n)]
    jobs = [(rows, N, b) for N, b in projector_pool_forms() for rows in shapes]
    fresh = {}
    for job in jobs:
        diagram_basis.cache_clear()
        fresh[job] = build(*job)[1]
    diagram_basis.cache_clear()
    reports = []
    for job in jobs:
        rep, got = build(*job)
        assert got == fresh[job], job
        reports.append((rep, dict(rep._snapshot.terms), job))
    for job in reversed(jobs):
        assert build(*job)[1] == fresh[job], job
    # a report's snapshot is unchanged by every later build at its D
    for rep, terms, job in reports:
        assert rep._snapshot.terms == terms, job
        assert rep.element == fresh[job][2], job
