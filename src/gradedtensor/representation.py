"""Concrete action of Brauer elements on V^(tensor D), exactly.

Everything here is exact rational linear algebra: diagram matrices,
the closed-form integer spectrum of the arc-sum element, the universal
traceless projector, the explicit symmetric-traceless product formula
and irreducible-symmetry projectors.  The projector elements are built
at the loop weight z0 = (-1)^b N in integers (`_ElementAtZ0`), and every
report is read there too, by one route (`_report`); the only tensor map
it builds is that of e * A, which equals A * e, where that product is
not zero in B_D (B_D does not act faithfully at small N).  An
irreducible projector whose traceless component does not occur on the
tensor space (`traceless_component_occurs`) is zero, and is reported
from that rule with no build.  Every tensor map of a Brauer element is
filled by one routine (`_numerator_map`) from integer numerators keyed
by diagram number.  The symplectic grading enters through the form
(delta or omega) and the diagram grading sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .brauer import (
    BrauerDiagram,
    BrauerElement,
    DiagramBasis,
    casimir_ad,
    diagram_basis,
    partners,
)
from .errors import CapExceededError
from .polynomial import Poly
from .young import (
    CanonicalTableau,
    YoungDiagram,
    content_sum,
    lr_coefficient,
    partitions,
    symmetrizer_norm,
)

SIZE_CAP = 20736  # N**D above this errors instead of thrashing
MAP_WORK_CAP = 4_000_000  # entries the small-N fallback map of e * A may fill
DIAGRAM_CAP = 135_135  # (2D - 1)!! diagrams of B_D a build may visit: all of B_7


# -- graded bilinear forms ---------------------------------------------------


def grading_bit(b: int) -> int:
    """b, checked to be a grading: 0 (orthogonal) or 1 (symplectic)."""
    if b not in (0, 1):
        raise ValueError("grading bit must be 0 or 1")
    return b


class GradedForm:
    """The bilinear form of the model: Kronecker delta (b=0) or the
    canonical symplectic form (b=1, N even), with its inverse.

    Entries are the ints +-1, stored sparsely over 0-based indices; both
    the form and its inverse have exactly N nonzero entries.  They are
    filled on first read, so a size cap refuses a huge N before they are.
    """

    def __init__(self, N: int, b: int):
        grading_bit(b)
        if N < 1:
            raise ValueError("dimension must be positive")
        if b == 1 and N % 2 != 0:
            raise ValueError("symplectic form requires even N")
        self.N = N
        self.b = b

    @functools.cached_property
    def lower(self) -> Dict[Tuple[int, int], int]:
        if self.b == 0:
            return {(a, a): 1 for a in range(self.N)}
        half = self.N // 2
        lower = {}
        for a in range(half):
            lower[(a, a + half)] = 1
            lower[(a + half, a)] = -1
        return lower

    @functools.cached_property
    def upper(self) -> Dict[Tuple[int, int], int]:
        """The inverse form: the lower entries times (-1)^b."""
        return {k: -v if self.b else v for k, v in self.lower.items()}

    @property
    def z_value(self) -> Fraction:
        """The loop weight carried by this form: (-1)^b N."""
        return Fraction(-self.N if self.b else self.N)

    def lower_entry(self, i: int, j: int) -> int:
        return self.lower.get((i, j), 0)

    def upper_entry(self, i: int, j: int) -> int:
        return self.upper.get((i, j), 0)

    def upper_nonzeros(self) -> List[Tuple[int, int, int]]:
        return [(i, j, v) for (i, j), v in sorted(self.upper.items())]

    def __repr__(self):
        return f"GradedForm(N={self.N}, b={self.b})"


# -- sparse exact linear maps ------------------------------------------------


class TensorMap:
    """An exact-rational linear map on the N^D-dimensional tensor space.

    Integer numerators over one positive common denominator: cols[j] maps
    row index to a nonzero int, and entry (i, j) is cols[j][i] / den.
    Stored column-sparse.
    """

    __slots__ = ("N", "D", "size", "cols", "den")

    def __init__(self, N: int, D: int, cols: Dict[int, Dict[int, int]], den: int = 1):
        self.N = N
        self.D = D
        self.size = N**D
        self.den = den
        self.cols = {
            j: {i: v for i, v in col.items() if v != 0}
            for j, col in cols.items()
            if any(v != 0 for v in col.values())
        }

    @classmethod
    def identity(cls, N: int, D: int) -> "TensorMap":
        return cls(N, D, {j: {j: 1} for j in range(N**D)})

    def _check_compatible(self, other: "TensorMap"):
        if (self.N, self.D) != (other.N, other.D):
            raise ValueError("tensor map shape mismatch")

    def compose(self, other: "TensorMap") -> "TensorMap":
        """self after other, i.e. the matrix product self @ other."""
        self._check_compatible(other)
        cols: Dict[int, Dict[int, int]] = {}
        for j, col in other.cols.items():
            acc: Dict[int, int] = {}
            for mid, v in col.items():
                left = self.cols.get(mid)
                if not left:
                    continue
                for i, w in left.items():
                    acc[i] = acc.get(i, 0) + v * w
            if acc:
                cols[j] = acc
        return TensorMap(self.N, self.D, cols, self.den * other.den)

    def __eq__(self, other):
        """Equal entries, compared as numerators cross-multiplied by the
        other map's denominator."""
        if not isinstance(other, TensorMap) or (self.N, self.D) != (other.N, other.D):
            return False
        if self.den == other.den:
            return self.cols == other.cols
        if self.cols.keys() != other.cols.keys():
            return False
        for j, col in self.cols.items():
            theirs = other.cols[j]
            if col.keys() != theirs.keys():
                return False
            if any(v * other.den != theirs[i] * self.den for i, v in col.items()):
                return False
        return True

    def is_zero(self) -> bool:
        return not self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.cols.get(j, {}).get(i, 0), self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(col[j] for j, col in self.cols.items() if j in col), self.den)

    def dense_rows(self) -> List[List[Fraction]]:
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = Fraction(v, self.den)
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


def _check_cap(N: int, D: int):
    if N**D > SIZE_CAP:  # named as N^D, whose digits may be past what an int may print
        raise CapExceededError(f"N^D = {N}^{D} exceeds the size cap {SIZE_CAP}")


def _check_diagram_cap(D: int):
    diagrams = math.prod(range(1, 2 * D, 2))
    if diagrams > DIAGRAM_CAP:
        raise CapExceededError(f"B_{D} has {diagrams} diagrams, above the cap {DIAGRAM_CAP}")


# -- diagram and element actions ---------------------------------------------


def _numerator_map(
    basis: DiagramBasis, numerators: Dict[int, int], den: int, form: GradedForm
) -> TensorMap:
    """The map of the sum over k of numerators[k] / den times the action
    of diagram k of basis.

    Each pair of a diagram is one factor that fixes the index values at
    both its points, so a choice of one nonzero factor per pair is one
    nonzero entry; the choices are extended one pair at a time.  Column
    digits are the top-row indices b, row digits the bottom-row indices
    a.  An entry is keyed by the one int column * N^D + row, in which
    point q carries the digit N^(2D - q); the entries of all diagrams add
    into one dict, split into columns at the end.  A diagram is read from
    its partner tuple and, at b = 1, its grading sign `basis.eta(k)`; the
    choices of each pair are listed once per call, for the first diagram
    that has it.
    """
    N, D = form.N, basis.D
    digit = [N ** (2 * D - q) for q in range(2 * D + 1)]
    delta = {(x, x): 1 for x in range(N)}
    # (m, q) -> (code, value) per nonzero factor on the pair (m, q)
    pair_choices: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    eta = basis.eta if form.b else None
    total: Dict[int, int] = {}
    for k, c in numerators.items():
        p = basis.partners[k]
        # (code, value) per choice of one factor on each pair taken so far
        entries = [(0, c * eta(k) if eta else c)]
        for m in range(1, 2 * D + 1):
            q = p[m]
            if q < m:
                continue
            choices = pair_choices.get((m, q))
            if choices is None:
                # (i, j) -> g puts i at the right point q and j at the left point m
                factors = delta if m <= D < q else form.lower if q <= D else form.upper
                choices = pair_choices[m, q] = [
                    (i * digit[q] + j * digit[m], g) for (i, j), g in factors.items()
                ]
            entries = [(code + step, value * g) for code, value in entries for step, g in choices]
        for code, value in entries:
            total[code] = total.get(code, 0) + value
    size = N**D
    cols: Dict[int, Dict[int, int]] = {}
    for code, value in total.items():
        col, row = divmod(code, size)
        cols.setdefault(col, {})[row] = value
    return TensorMap(N, D, cols, den)


def diagram_to_map(d: BrauerDiagram, form: GradedForm) -> TensorMap:
    """Matrix of a single diagram's action on tensor components.

    Input indices b sit on the top row, output indices a on the bottom
    row.  Entry (a, b) is one factor per pair: delta(a_u, b_t) for a
    through strand (t, u), g_{b_p b_m} (`form.lower`) for a top arc
    (m, p), g^{a_l a_k} (`form.upper`) for a bottom arc (k, l), times the
    grading sign eta(d) when b = 1.  These index orders follow the
    canonical orientation that defines eta, which keeps the action
    multiplicative.  The one-term case of `element_to_map`.
    """
    return element_to_map(BrauerElement.of_diagram(d), form)


def element_to_map(e: BrauerElement, form: GradedForm) -> TensorMap:
    """Linear extension of the diagram action, with z evaluated at (-1)^b N.

    Each coefficient is evaluated once; the map's denominator is the lcm
    of their denominators.  Each diagram is numbered in the shared
    `diagram_basis(e.D)`, and the integer numerators go through the one
    filler the projector reports use (`_numerator_map`), which adds one
    nonzero form entry per pair (see `diagram_to_map`) into one column
    dict; no N^D scan and no map per diagram.
    """
    _check_cap(form.N, e.D)
    values = {d: coeff(form.z_value) for d, coeff in e.terms.items()}
    den = math.lcm(*(c.denominator for c in values.values()))
    basis = diagram_basis(e.D)
    numerators = {
        basis.number(partners(d)): c.numerator * (den // c.denominator)
        for d, c in values.items()
        if c
    }
    return _numerator_map(basis, numerators, den, form)


# -- spectra and projectors ---------------------------------------------------


def ad_matrix(D: int, form: GradedForm) -> TensorMap:
    return element_to_map(casimir_ad(D), form)


def _matvec(m: TensorMap, v: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for j, c in v.items():
        col = m.cols.get(j)
        if not col:
            continue
        for i, w in col.items():
            out[i] = out.get(i, Fraction(0)) + c * w
    return {i: c / m.den for i, c in out.items() if c != 0}


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


def traceless_component_occurs(rows: Tuple[int, ...], form: GradedForm) -> bool:
    """Whether the traceless tensors of symmetry type rows occur on V^(tensor D).

    The traceless tensors are the sum of [lambda]_G (x) S^lambda over the
    lambda that occur (Weyl, The Classical Groups, 1939, ch. V): those with
    lambda'_1 + lambda'_2 <= N for O(N), and, in the graded form at b = 1,
    2 lambda_1 <= N for Sp(N).  The empty shape always occurs.
    """
    if form.b:
        return 2 * max(rows, default=0) <= form.N
    return len(rows) + sum(r >= 2 for r in rows) <= form.N


def ad_nonzero_eigenvalues(D: int, form: GradedForm) -> Set[int]:
    """Distinct nonzero eigenvalues of the arc-sum element, in closed form.

    By Nazarov's Jucys-Murphy elements for the Brauer algebra (J. Algebra
    182, 1996), A_D acts as alpha = c(lambda) - c(mu) + f (z - 1) on the
    component labelled by mu |- D - 2f and lambda |- D, where lambda occurs
    in mu times an even-row nu |- 2f, c is the content sum and
    z = (-1)^b N.  Only pairs present on the tensor space count: l(lambda)
    <= N for O(N) and lambda_1 <= N for Sp(N), and mu's traceless
    component occurs (`traceless_component_occurs`).  No tensor map is
    built.
    """
    N, z = form.N, int(form.z_value)
    if form.b:
        lambdas = [lam for lam in partitions(D) if lam[0] <= N]
    else:
        lambdas = [lam for lam in partitions(D) if len(lam) <= N]
    found: Set[int] = set()
    for f in range(1, D // 2 + 1):
        even_nus = [nu for nu in partitions(2 * f) if all(r % 2 == 0 for r in nu)]
        for mu in partitions(D - 2 * f):
            if not traceless_component_occurs(mu, form):
                continue
            for lam in lambdas:
                alpha = content_sum(lam) - content_sum(mu) + f * (z - 1)
                if alpha and any(lr_coefficient(lam, mu, nu) for nu in even_nus):
                    found.add(alpha)
    return found


@dataclass(frozen=True)
class ProjectorReport:
    """A constructed projector P, checked to be a traceless idempotent,
    with its exact invariants.

    The checks and the trace are read in B_D at z0 (see `_report`): e * A
    (= A * e) there, with its map only where that product is not zero;
    (c_lambda / n_lambda) * e = e; and the trace of e's action.  The report
    keeps a snapshot of e's integer numerators over its denominator, left
    out of equality; the `BrauerElement` (`element`) and the map P
    (`projector`, filled from the numerators by `_numerator_map`) are
    built from it only on demand.

    A zero component (`irreducible_projector` on a shape whose traceless
    component does not occur) has no snapshot, only its shape: P is the
    zero map, and e is built, and checked, by `_report` on each access.
    """

    trace: Fraction
    rank: int
    idempotent: bool
    form: GradedForm
    _snapshot: Optional["_ElementAtZ0"] = field(compare=False, repr=False)
    _shape: Optional[YoungDiagram] = field(default=None, compare=False, repr=False)

    @property
    def element(self) -> BrauerElement:
        """e as a `BrauerElement` at z0, built from the snapshot on each access."""
        if self._snapshot is None:
            return _report(_irreducible(self._shape, self.form), self._shape).element
        return self._snapshot.element()

    @property
    def projector(self) -> TensorMap:
        """P as an N^D x N^D map, built from the snapshot on each access."""
        x = self._snapshot
        if x is None:
            return TensorMap(self.form.N, self._shape.size, {})
        return _numerator_map(x.basis, x.terms, x.den, self.form)


def _report(x: "_ElementAtZ0", lam: Optional[YoungDiagram]) -> ProjectorReport:
    """x checked to be a traceless idempotent, with its invariants; lam is
    the shape of the symmetrizer applied to x, None if there is none.

    e is (c_lambda / n_lambda) * T (`irreducible_projector`),
    (c_(D) / D!) * T (`symmetric_traceless_projector`, lam = (D)) or T
    (`traceless_projector`), with T a product of factors (1 - A/alpha).
    Three checks, read in B_D at z0 but for one map where B_D is not
    faithful:

    - e * A is formed in B_D, and equals A * e: e is c_lambda times a
      polynomial in A, and A commutes with every permutation (Nazarov,
      J. Algebra 182 (1996)).  Only if it is not zero (B_D need not act
      faithfully at small N) is its map built, and it must be zero.
      Either way A.P = 0 on the tensor space.  The map is filled from
      e * A's integer numerators over x's denominator by
      `_numerator_map`, with no `BrauerElement`, no polynomial and no
      lcm; it has N^D entries per term, and above `MAP_WORK_CAP` of them
      the call raises `CapExceededError` before filling.
    - (c_lambda / n_lambda) * e = e, by one more symmetrizer pass on a
      copy of x, when lam is given.
    - The trace is `_ElementAtZ0.trace`; an idempotent's rank equals its
      trace, so the rank is read off it with no elimination.

    P.P = P then follows.  T - 1 = A * q(A) for a polynomial q, and T
    commutes with c_lambda.  With (c_lambda / n_lambda) * e = e checked,
    e * e - e is q(A) * (A * e) in all three cases, and its action
    vanishes with that of A * e.

    The report keeps a copy of x's numerators and denominator, not x
    itself; e is converted to a `BrauerElement` only when the report's
    element is read.
    """
    e_ad = x.times_ad()
    if e_ad.terms:
        work = len(e_ad.terms) * x.form.N**x.D
        if work > MAP_WORK_CAP:
            raise CapExceededError(
                f"the map of e * A needs {work} entries, above the cap {MAP_WORK_CAP}"
            )
        if not _numerator_map(x.basis, e_ad.terms, x.den, x.form).is_zero():
            raise ArithmeticError("projector image is not traceless")
    if lam is not None and not x.fixed_by_symmetrizer(lam):
        raise ArithmeticError("projector is not idempotent")
    trace = x.trace()
    return ProjectorReport(
        trace=trace, rank=int(trace), idempotent=True, form=x.form, _snapshot=x.copy()
    )


class _ElementAtZ0:
    """A Brauer element under construction, read at the loop weight
    z0 = (-1)^b N: integer numerators keyed by diagram number in the
    shared `brauer.diagram_basis(D)`, over one common denominator.

    Right factors (1 - A/alpha), Young symmetrizers below, the product
    self * A (A * self for a projector element, see `_report`), the trace
    and `element` read only the basis's rows, with no general Brauer
    product, no polynomial in z and no partner tuple.  Each row is
    compiled once and shared by every element at that D in the process
    (see `brauer` for what sharing gains and costs).
    """

    __slots__ = ("D", "form", "z0", "basis", "terms", "den")

    def __init__(self, D: int, form: GradedForm):
        _check_diagram_cap(D)
        self.D = D
        self.form = form
        self.z0 = int(form.z_value)
        self.basis = diagram_basis(D)
        self.terms: Dict[int, int] = {0: 1}  # the identity
        self.den = 1

    def _add_times_ad(self, out: Dict[int, int], sign: int) -> Dict[int, int]:
        """Add sign * self * A into out and return it: beta_ij above a
        diagram acts at its top points i, j, and closes a loop, a factor
        z0, exactly when it leaves the diagram unchanged."""
        top, z0 = self.basis.top, self.z0
        for k, c in self.terms.items():
            c *= sign
            for q in top(k):
                out[q] = out.get(q, 0) + (c * z0 if q == k else c)
        return out

    def times_traceless_factor(self, alpha: int):
        """self * (1 - A/alpha) = (alpha * self - sum_{i<j} self * beta_ij) / alpha."""
        out = self._add_times_ad({k: alpha * c for k, c in self.terms.items()}, -1)
        self.terms = {k: c for k, c in out.items() if c}
        self.den *= alpha

    def times_ad(self) -> "_ElementAtZ0":
        """self * A (A above self) over self.den, zeros dropped."""
        return self._with({k: c for k, c in self._add_times_ad({}, 1).items() if c})

    def _times_transpositions(self, arcs: List[int], sign: int):
        """self times (1 + sign * sum of the transpositions (i j) below,
        for the numbers of the arcs (i, j))."""
        swapped = self.basis.swapped
        out = dict(self.terms)
        for k, c in self.terms.items():
            row, c = swapped(k), sign * c
            for a in arcs:
                q = row[a]
                out[q] = out.get(q, 0) + c
        self.terms = {k: c for k, c in out.items() if c}

    def symmetrized(self, lam: YoungDiagram):
        """Multiply by c_lambda / n_lambda below: c_lambda * self.

        c_lambda = a_lambda * b_lambda for the canonical tableau, applied
        as transposition factors (Jucys, Rep. Math. Phys. 5 (1974) 107;
        Murphy, J. Algebra 69 (1981) 287): each row gives
        prod_k (1 + sum_{i<k in the row} (i k)) and each column
        prod_k (1 - sum_{i<k in the column} (i k)).  (i k) below self
        swaps the bottom points D+i and D+k.  Equal diagrams merge after
        every factor, so a factor costs k - 1 relabelings per diagram, not
        one per term of c_lambda.  One side serves every builder: a traceless
        product T is a polynomial in A, which commutes with every
        permutation (Nazarov, J. Algebra 182 (1996)), so T * c = c * T.
        """
        tableau = CanonicalTableau(lam)
        rows = [(row, 1) for row in tableau.rows_of_entries()]
        columns = [(column, -1) for column in tableau.columns_of_entries()]
        arc_number = self.basis.arc_number
        # c * self = a * (b * self): the columns act first
        for block, sign in columns + rows:
            for k in range(1, len(block)):
                self._times_transpositions([arc_number[block[i], block[k]] for i in range(k)], sign)
        self.den *= int(symmetrizer_norm(lam))

    def _with(self, terms: Dict[int, int]) -> "_ElementAtZ0":
        """The element with these numerators over self.den."""
        other = _ElementAtZ0(self.D, self.form)
        other.terms, other.den = terms, self.den
        return other

    def copy(self) -> "_ElementAtZ0":
        """A copy with its own terms, unaffected by later updates of self."""
        return self._with(dict(self.terms))

    def fixed_by_symmetrizer(self, lam: YoungDiagram) -> bool:
        """(c_lambda / n_lambda) * self == self exactly."""
        other = self.copy()
        other.symmetrized(lam)
        return other.terms.keys() == self.terms.keys() and all(
            c * self.den == self.terms[k] * other.den for k, c in other.terms.items()
        )

    def trace(self) -> Fraction:
        """The trace of self's action on the tensor space, with no map.

        A diagram d acts with trace (-1)^(b D) z0^L(d), L(d) its loops
        closed by the identity (`DiagramBasis.loops`); the grading sign
        eta(d) does not enter.  At b = 0 each loop is a delta cycle, a
        factor N; on a permutation at b = 1 it is sign(sigma) N^L with
        sign(sigma) = (-1)^(D - L).
        """
        loops = self.basis.loops
        total = sum(c * self.z0 ** loops(k) for k, c in self.terms.items())
        return Fraction(-total if self.form.b and self.D % 2 else total, self.den)

    def element(self) -> BrauerElement:
        """The element with constant coefficients numerator / den."""
        diagram = self.basis.diagram
        return BrauerElement(
            self.D, {diagram(k): Fraction(c, self.den) for k, c in self.terms.items()}
        )


def _traceless(D: int, form: GradedForm) -> _ElementAtZ0:
    out = _ElementAtZ0(D, form)
    if D >= 2:
        for alpha in sorted(ad_nonzero_eigenvalues(D, form)):
            out.times_traceless_factor(alpha)
    return out


def traceless_element(D: int, form: GradedForm) -> BrauerElement:
    """The universal traceless projector as a Brauer element at z0.

    The product over the nonzero eigenvalues alpha of (1 - A/alpha), with
    the closed-form eigenvalues for the given N and grading (no tensor map).
    """
    return _traceless(D, form).element()


def traceless_projector(D: int, form: GradedForm) -> ProjectorReport:
    """Projector onto tensors annihilated by every form contraction.

    e = T acts as an idempotent once e * A acts as zero (see `_report`),
    with no symmetrizer check.
    """
    _check_cap(form.N, D)
    return _report(_traceless(D, form), None)


def _symmetric_traceless(D: int, form: GradedForm) -> _ElementAtZ0:
    out = _ElementAtZ0(D, form)
    for f in range(1, D // 2 + 1):
        alpha = (out.z0 + 2 * (D - f - 1)) * f
        if alpha == 0:
            raise ValueError(f"degenerate N: denominator vanishes at factor f={f}")
        out.times_traceless_factor(alpha)
    return out


def symmetric_traceless_element(D: int, form: GradedForm) -> BrauerElement:
    """The explicit product formula removing trace modes after symmetrization,
    as a Brauer element at z0.

    Factors (1 - A / (((-1)^b N + 2(D - f - 1)) f)) for f = 1 .. floor(D/2),
    read at the loop weight of the given grading.
    """
    return _symmetric_traceless(D, form).element()


def symmetric_traceless_projector(D: int, form: GradedForm) -> ProjectorReport:
    """The product formula composed with the normalized full symmetrizer.

    This is the propagator of the symmetric traceless model; at b = 1
    the same formula is read at loop weight -N and the symmetrizer acts
    in the signed representation.  The symmetrizer is applied below,
    (c_(D) / D!) * T, which equals T * (c_(D) / D!) (`_ElementAtZ0.symmetrized`).
    """
    _check_cap(form.N, D)
    out = _symmetric_traceless(D, form)
    lam = YoungDiagram((D,))
    out.symmetrized(lam)
    return _report(out, lam)


def _irreducible(lam: YoungDiagram, form: GradedForm) -> _ElementAtZ0:
    _check_cap(form.N, lam.size)
    out = _traceless(lam.size, form)
    out.symmetrized(lam)
    return out


def irreducible_element(lam: YoungDiagram, form: GradedForm) -> BrauerElement:
    """c_lambda followed by the universal traceless projector, normalized
    to be idempotent, as a Brauer element at z0."""
    return _irreducible(lam, form).element()


def irreducible_projector(lam: YoungDiagram, form: GradedForm) -> ProjectorReport:
    """Projector for an irreducible symmetry type, with its invariants.

    Where lam's traceless component does not occur on the tensor space
    (`traceless_component_occurs`), P is zero and the report says so with
    no B_D build; its element is built on access (see `ProjectorReport`).
    """
    _check_cap(form.N, lam.size)
    if not traceless_component_occurs(lam.rows, form):
        return ProjectorReport(
            trace=Fraction(0), rank=0, idempotent=True, form=form, _snapshot=None, _shape=lam
        )
    return _report(_irreducible(lam, form), lam)


def check_table_cap(D: int):
    """Propagator tables are supported for D <= 4 strands."""
    if D > 4:
        raise CapExceededError("propagator decomposition supported for |lambda| <= 4")


def decompose_projector_as_propagator(lam: YoungDiagram, form: GradedForm) -> BrauerElement:
    """The irreducible projector as a propagator table, checked as
    `irreducible_projector` checks its report: each term is one undirected
    pairing of the 2D propagator slots with its rational weight at z0."""
    check_table_cap(lam.size)
    return irreducible_projector(lam, form).element
