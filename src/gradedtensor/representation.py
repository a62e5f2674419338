"""Concrete action of Brauer elements on V^(tensor D), exactly.

Everything here is exact rational linear algebra: diagram matrices,
the closed-form integer spectrum of the arc-sum element, the universal
traceless projector, the explicit symmetric-traceless product formula
and irreducible-symmetry projectors.  The symplectic grading enters
through the form (delta or omega) and the diagram grading sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from .brauer import (
    BrauerDiagram,
    BrauerElement,
    casimir_ad,
    embed_group_algebra,
    eta_sign,
    multiply,
)
from .errors import CapExceededError
from .polynomial import Poly
from .young import (
    YoungDiagram,
    content_sum,
    lr_coefficient,
    partitions,
    symmetrizer_norm,
    young_symmetrizer,
)

DEFAULT_SIZE_CAP = 20736  # N**D above this errors instead of thrashing


# -- graded bilinear forms ---------------------------------------------------


class GradedForm:
    """The bilinear form of the model: Kronecker delta (b=0) or the
    canonical symplectic form (b=1, N even), with its inverse.

    Entries are stored sparsely over 0-based indices; both the form and
    its inverse have exactly N nonzero entries.
    """

    __slots__ = ("N", "b", "lower", "upper")

    def __init__(self, N: int, b: int):
        if b not in (0, 1):
            raise ValueError("grading bit must be 0 or 1")
        if N < 1:
            raise ValueError("dimension must be positive")
        if b == 1 and N % 2 != 0:
            raise ValueError("symplectic form requires even N")
        self.N = N
        self.b = b
        lower: Dict[Tuple[int, int], Fraction] = {}
        upper: Dict[Tuple[int, int], Fraction] = {}
        if b == 0:
            for a in range(N):
                lower[(a, a)] = Fraction(1)
                upper[(a, a)] = Fraction(1)
        else:
            half = N // 2
            for a in range(half):
                lower[(a, a + half)] = Fraction(1)
                lower[(a + half, a)] = Fraction(-1)
                upper[(a, a + half)] = Fraction(-1)
                upper[(a + half, a)] = Fraction(1)
        self.lower = lower
        self.upper = upper

    @property
    def z_value(self) -> Fraction:
        """The loop weight carried by this form: (-1)^b N."""
        return Fraction(-self.N if self.b else self.N)

    def lower_entry(self, i: int, j: int) -> Fraction:
        return self.lower.get((i, j), Fraction(0))

    def upper_entry(self, i: int, j: int) -> Fraction:
        return self.upper.get((i, j), Fraction(0))

    def upper_nonzeros(self) -> List[Tuple[int, int, Fraction]]:
        return [(i, j, v) for (i, j), v in sorted(self.upper.items())]

    def __repr__(self):
        return f"GradedForm(N={self.N}, b={self.b})"


# -- sparse exact linear maps ------------------------------------------------


class TensorMap:
    """An exact-rational linear map on the N^D-dimensional tensor space.

    Stored column-sparse: cols[j] maps row index to a nonzero Fraction.
    """

    __slots__ = ("N", "D", "size", "cols")

    def __init__(self, N: int, D: int, cols: Dict[int, Dict[int, Fraction]]):
        self.N = N
        self.D = D
        self.size = N**D
        self.cols = {
            j: {i: v for i, v in col.items() if v != 0}
            for j, col in cols.items()
            if any(v != 0 for v in col.values())
        }

    @classmethod
    def identity(cls, N: int, D: int) -> "TensorMap":
        return cls(N, D, {j: {j: Fraction(1)} for j in range(N**D)})

    def _check_compatible(self, other: "TensorMap"):
        if (self.N, self.D) != (other.N, other.D):
            raise ValueError("tensor map shape mismatch")

    def compose(self, other: "TensorMap") -> "TensorMap":
        """self after other, i.e. the matrix product self @ other."""
        self._check_compatible(other)
        cols: Dict[int, Dict[int, Fraction]] = {}
        for j, col in other.cols.items():
            acc: Dict[int, Fraction] = {}
            for mid, v in col.items():
                left = self.cols.get(mid)
                if not left:
                    continue
                for i, w in left.items():
                    acc[i] = acc.get(i, Fraction(0)) + v * w
            if acc:
                cols[j] = acc
        return TensorMap(self.N, self.D, cols)

    def __eq__(self, other):
        return (
            isinstance(other, TensorMap)
            and (self.N, self.D) == (other.N, other.D)
            and self.cols == other.cols
        )

    def is_zero(self) -> bool:
        return not self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return self.cols.get(j, {}).get(i, Fraction(0))

    def trace(self) -> Fraction:
        return sum((col[j] for j, col in self.cols.items() if j in col), Fraction(0))

    def dense_rows(self) -> List[List[Fraction]]:
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def rank(self) -> int:
        return len(row_reduce(self.dense_rows()))

    def nullity(self) -> int:
        return self.size - self.rank()

    def is_idempotent(self) -> bool:
        return self.compose(self) == self


def row_reduce(rows: List[List[Fraction]]) -> List[int]:
    """Exact Gauss-Jordan elimination of the rows, in place, to reduced
    row echelon form; returns the pivot (independent) columns."""
    pivots: List[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pval = prow[col]
        support = [c for c in range(col, len(prow)) if prow[c] != 0]
        for c in support:
            prow[c] /= pval
        for k, row in enumerate(rows):
            f = row[col]
            if k == r or f == 0:
                continue
            for c in support:
                row[c] -= f * prow[c]
        pivots.append(col)
    return pivots


# -- index coding ------------------------------------------------------------


def encode_index(idx: Tuple[int, ...], N: int) -> int:
    out = 0
    for a in idx:
        out = out * N + a
    return out


def decode_index(code: int, N: int, D: int) -> Tuple[int, ...]:
    out = [0] * D
    for k in range(D - 1, -1, -1):
        out[k] = code % N
        code //= N
    return tuple(out)


def _check_cap(N: int, D: int, size_cap: int):
    if N**D > size_cap:
        raise CapExceededError(f"N^D = {N**D} exceeds the size cap {size_cap}")


# -- diagram and element actions ---------------------------------------------


def _add_action(
    cols: Dict[int, Dict[int, Fraction]], d: BrauerDiagram, c: Fraction, form: GradedForm
):
    """Add c times the action of d into cols (column -> row -> entry).

    Each pair of d is one factor that fixes the index values at both its
    points, so a choice of one nonzero factor per pair is one nonzero
    entry.  Column digits are the top-row indices b, row digits the
    bottom-row indices a.
    """
    N, D = form.N, d.D
    # (column, row) code of index value 1 at each point
    unit = {q: (N ** (D - q), 0) if q <= D else (0, N ** (2 * D - q)) for q in range(1, 2 * D + 1)}
    delta = {(x, x): Fraction(1) for x in range(N)}
    per_pair = []
    for m, p in d.pairs:
        # (i, j) -> g puts i at the right point p and j at the left point m
        entries = delta if m <= D < p else form.lower if p <= D else form.upper
        (cm, rm), (cp, rp) = unit[m], unit[p]
        per_pair.append([(i * cp + j * cm, i * rp + j * rm, g) for (i, j), g in entries.items()])
    start = c * eta_sign(d) if form.b else c
    for choice in itertools.product(*per_pair):
        col = row = 0
        val = start
        for dc, dr, g in choice:
            col += dc
            row += dr
            val *= g
        dst = cols.setdefault(col, {})
        dst[row] = dst.get(row, 0) + val


def diagram_to_map(
    d: BrauerDiagram, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorMap:
    """Matrix of a single diagram's action on tensor components.

    Input indices b sit on the top row, output indices a on the bottom
    row.  Entry (a, b) is one factor per pair: delta(a_u, b_t) for a
    through strand (t, u), g_{b_p b_m} (`form.lower`) for a top arc
    (m, p), g^{a_l a_k} (`form.upper`) for a bottom arc (k, l), times the
    grading sign eta(d) when b = 1.  These index orders follow the
    canonical orientation that defines eta, which keeps the action
    multiplicative.  The one-term case of `element_to_map`.
    """
    return element_to_map(BrauerElement.of_diagram(d), form, size_cap)


def element_to_map(
    e: BrauerElement, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorMap:
    """Linear extension of the diagram action, with z evaluated at (-1)^b N.

    Every term with a nonzero coefficient adds its diagram's entries, one
    nonzero form entry per pair (see `diagram_to_map`), into one column
    dict; no N^D scan and no map per diagram.
    """
    _check_cap(form.N, e.D, size_cap)
    cols: Dict[int, Dict[int, Fraction]] = {}
    for d, coeff in e.terms.items():
        c = coeff(form.z_value)
        if c:
            _add_action(cols, d, c, form)
    return TensorMap(form.N, e.D, cols)


# -- spectra and projectors ---------------------------------------------------


def ad_matrix(D: int, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP) -> TensorMap:
    return element_to_map(casimir_ad(D), form, size_cap)


def _matvec(m: TensorMap, v: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for j, c in v.items():
        col = m.cols.get(j)
        if not col:
            continue
        for i, w in col.items():
            out[i] = out.get(i, Fraction(0)) + c * w
    return {i: c for i, c in out.items() if c != 0}


def _local_minimal_polynomial(m: TensorMap, start: Dict[int, Fraction]) -> Poly:
    """Monic annihilator of a single vector under m, by Krylov iteration.

    Maintains a reduced basis of the iterates together with their
    expansion over the original iterates; the first dependence gives the
    coefficients of the annihilating polynomial directly.
    """
    reduced: List[Tuple[int, Dict[int, Fraction], List[Fraction]]] = []
    current = dict(start)
    power = 0
    while True:
        vec = dict(current)
        rep = [Fraction(0)] * power + [Fraction(1)]
        for pivot, bvec, brep in reduced:
            c = vec.get(pivot)
            if not c:
                continue
            for i, w in bvec.items():
                val = vec.get(i, Fraction(0)) - c * w
                if val:
                    vec[i] = val
                else:
                    vec.pop(i, None)
            for k, w in enumerate(brep):
                if w:
                    if k >= len(rep):
                        rep.extend([Fraction(0)] * (k + 1 - len(rep)))
                    rep[k] -= c * w
        if not vec:
            return Poly(rep)  # monic by construction: rep[power] == 1
        pivot = min(vec)
        scale = vec[pivot]
        vec = {i: w / scale for i, w in vec.items()}
        rep = [w / scale for w in rep]
        reduced.append((pivot, vec, rep))
        current = _matvec(m, current)
        power += 1


def _poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    rest = list(a.coeffs)
    lead = b.coeffs[-1]
    while len(rest) >= len(b.coeffs):
        f = rest[-1] / lead
        shift = len(rest) - len(b.coeffs)
        quotient[shift] = f
        for k, c in enumerate(b.coeffs):
            rest[shift + k] -= f * c
        while rest and rest[-1] == 0:
            rest.pop()
        if not rest:
            break
    return Poly(quotient), Poly(rest)


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        a = a * (1 / a.coeffs[-1])  # monic
    return a


def minimal_polynomial(m: TensorMap) -> Poly:
    """Exact monic minimal polynomial of a tensor map.

    lcm of the local annihilators of the standard basis vectors, with a
    fast membership check so most vectors are skipped.  No projector is
    built from it: it is the independent numeric reference for the
    closed-form spectrum of `ad_nonzero_eigenvalues`.
    """
    p = Poly.const(1)
    for j in range(m.size):
        basis = {j: Fraction(1)}
        # does p already annihilate e_j?  Horner with matrix-vector products
        w: Dict[int, Fraction] = {}
        for c in reversed(p.coeffs):
            w = _matvec(m, w)
            if c:
                w[j] = w.get(j, Fraction(0)) + c
                if w[j] == 0:
                    del w[j]
        if not w:
            continue
        q = _local_minimal_polynomial(m, basis)
        gcd = _poly_gcd(p, q)
        p = _poly_divmod(p * q, gcd)[0]
        scale = p.coeffs[-1]
        if scale != 1:
            p = p * (1 / scale)
    return p


def ad_nonzero_eigenvalues(D: int, form: GradedForm) -> Set[int]:
    """Distinct nonzero eigenvalues of the arc-sum element, in closed form.

    By Nazarov's Jucys-Murphy elements for the Brauer algebra (J. Algebra
    182, 1996), A_D acts as alpha = c(lambda) - c(mu) + f (z - 1) on the
    component labelled by mu |- D - 2f and lambda |- D, where lambda occurs
    in mu times an even-row nu |- 2f, c is the content sum and
    z = (-1)^b N.  Only pairs present on the tensor space count: l(lambda)
    <= N and mu'_1 + mu'_2 <= N for O(N), lambda_1 <= N and mu_1 <= N/2
    for Sp(N).  No tensor map is built.
    """
    N, z = form.N, int(form.z_value)
    if form.b:
        lambdas = [lam for lam in partitions(D) if lam[0] <= N]
        mu_occurs = lambda mu: 2 * max(mu, default=0) <= N
    else:
        lambdas = [lam for lam in partitions(D) if len(lam) <= N]
        mu_occurs = lambda mu: len(mu) + sum(r >= 2 for r in mu) <= N
    found: Set[int] = set()
    for f in range(1, D // 2 + 1):
        even_nus = [nu for nu in partitions(2 * f) if all(r % 2 == 0 for r in nu)]
        for mu in filter(mu_occurs, partitions(D - 2 * f)):
            for lam in lambdas:
                alpha = content_sum(lam) - content_sum(mu) + f * (z - 1)
                if alpha and any(lr_coefficient(lam, mu, nu) for nu in even_nus):
                    found.add(alpha)
    return found


@dataclass(frozen=True)
class ProjectorReport:
    """A constructed projector with its exact invariants."""

    projector: TensorMap
    trace: Fraction
    rank: int
    idempotent: bool
    element: BrauerElement

    def __post_init__(self):
        if self.idempotent and self.trace != self.rank:
            raise ArithmeticError("idempotent map with trace != rank")


def _check_traceless(element: BrauerElement, form: GradedForm, size_cap: int) -> TensorMap:
    """The element's tensor map, after checking that A_D annihilates its image."""
    m = element_to_map(element, form, size_cap)
    if element.D >= 2 and not ad_matrix(element.D, form, size_cap).compose(m).is_zero():
        raise ArithmeticError("projector image is not traceless")
    return m


def _report(element: BrauerElement, form: GradedForm, size_cap: int) -> ProjectorReport:
    m = _check_traceless(element, form, size_cap)
    return ProjectorReport(
        projector=m,
        trace=m.trace(),
        rank=m.rank(),
        idempotent=m.is_idempotent(),
        element=element,
    )


def traceless_element(D: int, form: GradedForm) -> BrauerElement:
    """The universal traceless projector as a Brauer element.

    The product over the nonzero eigenvalues alpha of (1 - A/alpha), with
    the closed-form eigenvalues for the given N and grading (no tensor map).
    """
    one = BrauerElement.one(D)
    if D < 2:
        return one
    a = casimir_ad(D)
    out = one
    for alpha in sorted(ad_nonzero_eigenvalues(D, form)):
        out = multiply(out, one + a.scaled(Fraction(-1, alpha)))
    return out


def traceless_projector(
    D: int, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> ProjectorReport:
    """Projector onto tensors annihilated by every form contraction."""
    _check_cap(form.N, D, size_cap)
    return _report(traceless_element(D, form), form, size_cap)


def symmetric_traceless_element(
    D: int, form: GradedForm
) -> BrauerElement:
    """The explicit product formula removing trace modes after symmetrization.

    Factors (1 - A / (((-1)^b N + 2(D - f - 1)) f)) for f = 1 .. floor(D/2),
    read at the loop weight of the given grading.
    """
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


def symmetric_traceless_projector(
    D: int, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> ProjectorReport:
    """The product formula composed with the normalized full symmetrizer.

    This is the propagator of the symmetric traceless model; at b = 1
    the same formula is read at loop weight -N and the symmetrizer acts
    in the signed representation.
    """
    _check_cap(form.N, D, size_cap)
    factors = symmetric_traceless_element(D, form)
    c_s = embed_group_algebra(young_symmetrizer(YoungDiagram((D,))), D)
    element = multiply(factors, c_s.scaled(Fraction(1, math.factorial(D))))
    return _report(element, form, size_cap)


def irreducible_element(
    lam: YoungDiagram, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> BrauerElement:
    """c_lambda followed by the universal traceless projector, normalized
    to be idempotent, as a Brauer element."""
    D = lam.size
    _check_cap(form.N, D, size_cap)
    c = embed_group_algebra(young_symmetrizer(lam), D)
    return multiply(c.scaled(1 / symmetrizer_norm(lam)), traceless_element(D, form))


def irreducible_projector(
    lam: YoungDiagram, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> ProjectorReport:
    """Projector for an irreducible symmetry type, with its invariants."""
    return _report(irreducible_element(lam, form, size_cap), form, size_cap)


def check_table_cap(D: int):
    """Propagator tables are supported for D <= 4 strands."""
    if D > 4:
        raise CapExceededError("propagator decomposition supported for |lambda| <= 4")


def propagator_table(element: BrauerElement, form: GradedForm) -> BrauerElement:
    """A projector element as a diagram-basis table with numeric weights.

    Coefficients are evaluated at the loop weight (-1)^b N, so each term
    is one undirected pairing of the 2D propagator slots with a rational
    weight; the result is directly usable as a model propagator.
    """
    z = form.z_value
    return BrauerElement(element.D, {d: Poly.const(c(z)) for d, c in element.terms.items()})


def decompose_projector_as_propagator(
    lam: YoungDiagram, form: GradedForm, size_cap: int = DEFAULT_SIZE_CAP
) -> BrauerElement:
    """The irreducible projector as a propagator table, checked to have a traceless image."""
    check_table_cap(lam.size)
    element = irreducible_element(lam, form, size_cap)
    _check_traceless(element, form, size_cap)
    return propagator_table(element, form)
