import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtensor.combinatorics import perm_sign
from gradedtensor.polynomial import Poly
from gradedtensor.young import (
    GroupAlgebraElement,
    YoungDiagram,
    all_perms,
    column_group,
    compose_perms,
    dimension_duality_check,
    gl_dimension_poly,
    hook_length,
    lr_coefficient,
    partitions,
    row_group,
    symmetrizer_norm,
    transpose,
    young_symmetrizer,
)


def poly_from_roots(roots, scale) -> Poly:
    out = Poly.const(scale)
    for r in roots:
        out = out * Poly((Fraction(r), Fraction(1)))
    return out


def test_diagram_validation():
    YoungDiagram((3, 1))
    with pytest.raises(ValueError):
        YoungDiagram((1, 3))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))


def test_transpose_pairs():
    assert transpose(YoungDiagram((3, 1))).rows == (2, 1, 1)
    assert transpose(YoungDiagram((4,))).rows == (1, 1, 1, 1)


def test_transpose_involution_up_to_8():
    for d in range(1, 9):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            assert transpose(transpose(lam)) == lam


def test_hook_lengths():
    lam = YoungDiagram((2, 1, 1))
    assert hook_length(lam, 1, 1) == 4
    assert sorted(hook_length(lam, i, j) for (i, j) in lam.boxes()) == [1, 1, 2, 4]
    lam31 = YoungDiagram((3, 1))
    assert sorted(hook_length(lam31, i, j) for (i, j) in lam31.boxes()) == [1, 1, 2, 4]
    assert hook_length(YoungDiagram((1,)), 1, 1) == 1
    with pytest.raises(ValueError):
        hook_length(lam, 2, 2)


def test_hook_lengths_count_boxes():
    # the multiset of hooks of any diagram has |lambda| entries
    for d in range(1, 7):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            hooks = [hook_length(lam, i, j) for (i, j) in lam.boxes()]
            assert len(hooks) == d


def test_dimension_polynomials_from_product_formula():
    # independent evaluation of prod (N - i + j)/h_ij
    assert gl_dimension_poly(YoungDiagram((1,))) == Poly.x()
    # (2,1,1): contents {0, 1, -1, -2}, hooks 4*2*1*1
    expected = poly_from_roots([0, 1, -1, -2], Fraction(1, 8))
    assert gl_dimension_poly(YoungDiagram((2, 1, 1))) == expected
    # (3,1): contents {0, 1, 2, -1}
    expected31 = poly_from_roots([0, 1, 2, -1], Fraction(1, 8))
    assert gl_dimension_poly(YoungDiagram((3, 1))) == expected31


def test_dimension_matches_weyl_values():
    # dim Sym^2 R^N = N(N+1)/2, dim of (2,1,1) over GL(4) is 15, (3,1) is 45
    sym2 = gl_dimension_poly(YoungDiagram((2,)))
    assert [sym2(n) for n in range(2, 6)] == [3, 6, 10, 15]
    assert gl_dimension_poly(YoungDiagram((2, 1, 1)))(4) == 15
    assert gl_dimension_poly(YoungDiagram((3, 1)))(4) == 45
    # leading coefficient is 1 / product of hooks
    lam = YoungDiagram((3, 2))
    hooks = math.prod(hook_length(lam, i, j) for (i, j) in lam.boxes())
    poly = gl_dimension_poly(lam)
    assert poly.degree == lam.size
    assert poly.coefficient(poly.degree) == Fraction(1, hooks)


def test_dimension_duality_all_partitions_up_to_7():
    for d in range(1, 8):
        for rows in partitions(d):
            assert dimension_duality_check(YoungDiagram(rows))


def test_row_and_column_groups_of_2_1():
    lam = YoungDiagram((2, 1))
    p = set(row_group(lam))
    q = set(column_group(lam))
    assert p == {(0, 1, 2), (1, 0, 2)}
    assert q == {(0, 1, 2), (2, 1, 0)}


def test_group_orders():
    for rows in [(3,), (2, 1), (2, 2), (4, 2, 1)]:
        lam = YoungDiagram(rows)
        assert len(row_group(lam)) == math.prod(math.factorial(r) for r in lam.rows)
        cols = transpose(lam).rows
        assert len(column_group(lam)) == math.prod(math.factorial(c) for c in cols)
    assert len(column_group(YoungDiagram((5,)))) == 1


def test_symmetrizer_full_row_and_full_column():
    d = 3
    c_s = young_symmetrizer(YoungDiagram((d,)))
    assert c_s.terms == {p: Fraction(1) for p in all_perms(d)}
    c_a = young_symmetrizer(YoungDiagram((1,) * d))
    assert c_a.terms == {p: Fraction(perm_sign(p)) for p in all_perms(d)}


def test_symmetrizer_quasi_idempotent_up_to_5():
    for d in range(1, 6):
        for rows in partitions(d):
            lam = YoungDiagram(rows)
            c = young_symmetrizer(lam)
            n = symmetrizer_norm(lam)
            assert n != 0
            assert c * c == c * n


def standard_tableaux_count(rows) -> int:
    """f^lambda = n! / (product of hook lengths); 1 for the empty partition."""
    if not rows:
        return 1
    lam = YoungDiagram(rows)
    hooks = math.prod(hook_length(lam, i, j) for (i, j) in lam.boxes())
    return math.factorial(lam.size) // hooks


small_partitions = st.integers(0, 4).flatmap(lambda n: st.sampled_from(list(partitions(n))))


@settings(max_examples=60, deadline=None)
@given(mu=small_partitions, nu=small_partitions)
def test_lr_coefficients_induce_dimensions(mu, nu):
    # dimension of the induced S_{m+n} module: sum_lam c^lam_{mu nu} f^lam
    m, n = sum(mu), sum(nu)
    induced = sum(
        lr_coefficient(lam, mu, nu) * standard_tableaux_count(lam) for lam in partitions(m + n)
    )
    expected = math.comb(m + n, m) * standard_tableaux_count(mu) * standard_tableaux_count(nu)
    assert induced == expected


def test_lr_coefficient_known_values():
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 2), (), (2, 2)) == 1
    assert lr_coefficient((3, 1), (2,), (2,)) == 1
    assert lr_coefficient((2, 2), (2,), (1, 1)) == 0
    assert lr_coefficient((2,), (1, 1), ()) == 0


def test_group_algebra_product_convention(rng):
    # multiplication matches composition with the right factor applied first
    a = (0, 2, 1)
    b = (1, 2, 0)
    ea = GroupAlgebraElement.of_perm(a)
    eb = GroupAlgebraElement.of_perm(b)
    assert (ea * eb).terms == {compose_perms(a, b): Fraction(1)}
