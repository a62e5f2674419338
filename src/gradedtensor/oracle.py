"""Brute-force verification of Gaussian expectations, no stranded graphs.

An invariant expectation is the literal sum, over vertex pairings and
index assignments, of form entries times numeric covariance entries.
With anticommuting components (odd parity b*D) each term also carries
its vertex pairing's sign: Wick's theorem for Grassmann variables, under
which a moment is the Pfaffian of the covariance block on its
components.  The sum is regrouped by the distributive law only: vertex
pairings grow one pair at a time, the first open position paired with
the k-th later one at the Pfaffian's row sign (-1)^k; only covariance
entries that agree with the slot values already forced by strands are
visited, and partial sums that reach the same positions with equal
forced values merge (`_sparse_contraction`).  No face is counted and no
strand is walked.  Berezin integration in an exterior algebra
(`berezin_expectation`) is kept as the first-principles reference for
the fermionic moments.  Two further signs are pairing signs, as in the
pipeline: the covariance's grading sign per propagator term, read with
`perm_sign` from its oriented pairs (`ExplicitCovariance.from_propagator`),
and the invariant's grading sign against the reference vertex pairing
(`invariant_sign_normal_form`).
Agreement of the two routes is the package's central correctness property.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .combinatorics import DirectedPairing, all_pairings, perm_sign
from .errors import check_cap
from .model import Propagator, StrandedGraph, invariant_sign_normal_form
from .representation import GradedForm, row_reduce

GENERATOR_CAP = 16          # exterior algebra dimension 2**16, for berezin_expectation
COVARIANCE_SIZE_CAP = 1024  # N**D cap for explicit covariance matrices
WORK_CAP = 10**6           # oracle_work cap: index assignments x vertex pairings


# -- explicit covariances ------------------------------------------------------


class ExplicitCovariance:
    """The propagator written out as a numeric matrix on components.

    Entry (X, Y) is the two-point function of components X (first
    tensor) and Y (second tensor), obtained by direct index substitution
    into the propagator's pairing terms; the matrix is symmetric when
    the component parity b*D is even and antisymmetric when odd.

    Integer numerators over one positive common denominator: rows[x]
    maps y to a nonzero int, and entry (x, y) is rows[x][y] / den.
    """

    __slots__ = ("N", "D", "b", "size", "rows", "den")

    def __init__(self, N: int, D: int, b: int, rows: Sequence[Dict[int, int]], den: int = 1):
        """N^D sparse rows: rows[x][y] is the int numerator of entry (x, y); zeros are dropped."""
        size = N**D
        rows = [{y: a for y, a in row.items() if a} for row in rows]
        if len(rows) != size:
            raise ValueError(f"covariance has {len(rows)} rows, expected N^D = {size}")
        sign = -1 if (b * D) % 2 else 1
        for x, row in enumerate(rows):
            for y, a in row.items():
                if type(a) is not int or not 0 <= y < size:
                    raise ValueError(f"covariance entry ({x}, {y}) is not an int numerator on a component")
                if rows[y].get(x, 0) != sign * a:
                    raise ValueError(
                        "covariance does not match the component parity "
                        f"(expected {'anti' if sign < 0 else ''}symmetric)"
                    )
        self.N = N
        self.D = D
        self.b = b
        self.size = size
        self.rows = rows
        self.den = den

    @property
    def parity(self) -> int:
        return (self.b * self.D) % 2

    def entry(self, x: int, y: int) -> Fraction:
        return Fraction(self.rows[x].get(y, 0), self.den)

    @classmethod
    def from_propagator(cls, C: Propagator, form: GradedForm) -> "ExplicitCovariance":
        """The covariance of C under `form`, from its nonzero entries only.

        Entry (X, Y) sums, over the terms, gamma(z0) * sign times the
        product of form.upper_entry over the term's oriented pairs, read at
        the slot values of X (slots 1..D) and Y (slots D+1..2D).  A pair
        (a, b) of the canonical pairing is oriented (a, b) when a is a top
        slot and (b, a) when both are bottom slots, as in
        `BrauerDiagram.oriented`; at b = 1 the sign is that of the map from
        the flattened oriented pairs to 1, D+1, 2, D+2, ....  Every slot
        lies on exactly one pair, so only the choices of one nonzero upper
        entry per pair are visited.  An entry is keyed by the one int
        X * N^D + Y, in which slot s carries the digit N^(2D - s), and the
        entries of all terms add straight into row X at column Y; the
        constructor drops sums that cancel to zero.

        Weights are integer numerators read at z0 = (-1)^b N by Horner's
        rule from the propagator's `weight_table`, whose coefficients are
        numerators over `common`, the lcm of all coefficient denominators;
        den is common over the gcd of common and every numerator, which is
        the lcm of the reduced weights' denominators.
        """
        N, D = form.N, C.D
        size = check_cap(
            itertools.repeat(N, D), COVARIANCE_SIZE_CAP, f"covariance components (N^D = {N}^{D})"
        )
        z0 = int(form.z_value)
        common, table = C.weight_table
        numerators = []
        for coeffs in table:
            value = 0
            for c in reversed(coeffs):
                value = value * z0 + c
            numerators.append(value)
        divisor = math.gcd(common, *numerators)
        # slot s (1-based) -> its digit in the flat code X * N^D + Y, and the
        # 0-based slots 1, D+1, 2, D+2, ... that the oriented pairs map to
        digit = [0] + [N ** (2 * D - s) for s in range(1, 2 * D + 1)]
        ref = [s for c in range(D) for s in (c, D + c)]
        upper = form.upper_nonzeros()
        rows: List[Dict[int, int]] = [{} for _ in range(size)]
        for term, numerator in zip(C.terms, numerators):
            oriented = [(a, b) if a <= D else (b, a) for a, b in term.pairing]
            base = numerator // divisor
            if form.b:
                sigma = [0] * (2 * D)
                for u, v in zip((s for pair in oriented for s in pair), ref):
                    sigma[u - 1] = v
                base *= perm_sign(sigma)
            # (code, value) per choice of upper entries on the pairs so far
            entries = [(0, base)]
            for a, b in oriented:
                da, db = digit[a], digit[b]
                steps = [(u * da + v * db, g) for u, v, g in upper]
                entries = [(code + step, value * g) for code, value in entries for step, g in steps]
            for code, value in entries:
                x, y = divmod(code, size)
                rows[x][y] = rows[x].get(y, 0) + value
        return cls(N, D, form.b, rows, common // divisor)


# -- bosonic moments -----------------------------------------------------------


def bosonic_moment(cov: ExplicitCovariance, indices: Sequence[int]) -> Fraction:
    """Sum over pairings of products of covariance entries, no signs.

    Valid exactly when the component parity is even (commuting
    components); odd-length products vanish identically.
    """
    if cov.parity != 0:
        raise ValueError("bosonic moments need even component parity")
    if len(indices) % 2 != 0:
        raise ValueError("odd-length moment")
    if not indices:
        return Fraction(1)
    total = Fraction(0)
    for matching in all_pairings(len(indices)):
        prod = Fraction(1)
        for (i, j) in matching:
            prod *= cov.entry(indices[i - 1], indices[j - 1])
            if prod == 0:
                break
        total += prod
    return total


# -- exterior algebra and Berezin integration ----------------------------------


class ExteriorElement:
    """An element of the exterior algebra on n anticommuting generators.

    Basis monomials are bitmasks over the generators; multiplication
    counts the transpositions needed to merge two ascending monomials,
    which is where every sign of `berezin_expectation` comes from.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[int, Fraction]] = None):
        check_cap((n,), GENERATOR_CAP, "generators")
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def scalar(cls, n: int, c) -> "ExteriorElement":
        return cls(n, {0: Fraction(c)})

    @classmethod
    def generator(cls, n: int, k: int) -> "ExteriorElement":
        return cls(n, {1 << k: Fraction(1)})

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return ExteriorElement(self.n, terms)

    def scaled(self, c) -> "ExteriorElement":
        c = Fraction(c)
        return ExteriorElement(self.n, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "ExteriorElement") -> "ExteriorElement":
        terms: Dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                swaps = 0
                rest = mb
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    swaps += bin(ma >> (j + 1)).count("1")
                    rest &= rest - 1
                sign = -1 if swaps % 2 else 1
                key = ma | mb
                terms[key] = terms.get(key, Fraction(0)) + sign * ca * cb
        return ExteriorElement(self.n, terms)

    def coefficient(self, mask: int) -> Fraction:
        return self.terms.get(mask, Fraction(0))

    def top_coefficient(self) -> Fraction:
        """Berezin integral: the coefficient of the full ascending monomial."""
        return self.coefficient((1 << self.n) - 1)


def exterior_exp(quadratic: ExteriorElement) -> ExteriorElement:
    """exp of an even element; nilpotency truncates the series exactly."""
    result = ExteriorElement.scalar(quadratic.n, 1)
    power = ExteriorElement.scalar(quadratic.n, 1)
    k = 0
    max_order = quadratic.n // 2 + 1
    while True:
        k += 1
        if k > max_order:
            break
        power = power * quadratic
        if not power.terms:
            break
        result = result + power.scaled(Fraction(1, math.factorial(k)))
    return result


class _BerezinState:
    """Restriction of a (possibly singular) antisymmetric covariance to an
    invertible principal block, plus the expanded Gaussian weight.  Each
    component, as a combination of the generators, is computed once."""

    __slots__ = ("support", "inv_block", "weight", "normalization", "cov", "components")

    def __init__(self, cov: ExplicitCovariance):
        if cov.parity != 1:
            raise ValueError("Berezin integration needs odd component parity")
        dense = [[Fraction(row.get(y, 0)) for y in range(cov.size)] for row in cov.rows]
        support = row_reduce(dense)
        r = len(support)
        if r % 2 != 0:
            raise ValueError("antisymmetric covariance must have even rank")
        check_cap((r,), GENERATOR_CAP, "generators")
        # [block | 1] reduces to [1 | block^-1], the quadratic form on the
        # supported components
        aug = [
            [cov.entry(i, j) for j in support] + [Fraction(int(i == k)) for k in support]
            for i in support
        ]
        if row_reduce(aug)[:r] != list(range(r)):
            raise ValueError("singular quadratic form")
        inv_block = [row[r:] for row in aug]
        quadratic = ExteriorElement(
            r, {(1 << m) | (1 << n): -inv_block[m][n] for m in range(r) for n in range(m + 1, r)}
        )
        self.cov = cov
        self.support = support
        self.inv_block = inv_block
        self.components: Dict[int, ExteriorElement] = {}
        self.weight = exterior_exp(quadratic)
        self.normalization = self.weight.top_coefficient()
        if self.normalization == 0:
            raise ValueError("singular quadratic form")

    def component(self, x: int) -> ExteriorElement:
        """The component T_x as a linear combination of the generators."""
        element = self.components.get(x)
        if element is None:
            row = [self.cov.entry(x, j) for j in self.support]
            element = self.components[x] = ExteriorElement(len(row), {
                1 << m: sum((a * inv[m] for a, inv in zip(row, self.inv_block)), Fraction(0))
                for m in range(len(row))
            })
        return element

    def expectation(self, monomial: Sequence[int]) -> Fraction:
        """Expectation of an ordered product of components.

        The Gaussian weight exp(-T C^{-1} T / 2) is expanded exactly in
        the exterior algebra over the covariance's support, the monomial
        is multiplied in the given order, and the ratio of top-form
        coefficients is returned.  The empty monomial gives 1.
        """
        product = ExteriorElement.scalar(len(self.support), 1)
        for x in monomial:
            product = product * self.component(x)
            if not product.terms:
                return Fraction(0)
        product = product * self.weight
        return product.top_coefficient() / self.normalization


def berezin_expectation(cov: ExplicitCovariance, monomial: Sequence[int]) -> Fraction:
    """Expectation of an ordered product of components, from first principles:
    one `_BerezinState` is built for this monomial alone (see its `expectation`).

    The reference for the fermionic moments of `numeric_invariant_expectation`,
    whose signs come from vertex pairings instead; the covariance's rank is
    bounded by `GENERATOR_CAP`."""
    return _BerezinState(cov).expectation(monomial)


# -- invariant expectations -----------------------------------------------------


def oracle_work(S: StrandedGraph, N: int) -> int:
    """The work `numeric_invariant_expectation` may do on S, checked
    against `WORK_CAP` before the covariance is built.

    N^strands index assignments (each form has N nonzero entries) times
    (v-1)!! vertex pairings, at either parity: the number of terms of the
    literal sum.  `_sparse_contraction` regroups that sum; at each of a
    pairing's v/2 pairs it looks up at most one covariance entry per
    choice of form entries on the strands it has reached, so its lookups
    stay within v/2 times the estimate, and fall far below it where
    forced values merge.  The count is `errors.check_cap`, N once per
    strand and then (v-1)!! from its largest factor down: past `WORK_CAP`
    it raises `CapExceededError`, and below it is returned exactly."""
    factors = itertools.chain(itertools.repeat(N, len(S.strands)), range(S.vertices - 1, 1, -2))
    return check_cap(factors, WORK_CAP, "terms in the oracle's literal sum")


def _choices(ends: List[List[tuple]], p: int, reached: int, shift: List[int]) -> List[tuple]:
    """(code part at p, entry product, forced values onward) per choice of
    one form entry on each of p's strands not taken yet, once the
    positions in the bitmask `reached` are taken: a strand inside p adds
    both its parts to p's code, and one to an unreached position r adds
    its far part times r's shift to the forced values."""
    out = [(0, 1, 0)]
    for r, options in ends[p]:
        if r == p:
            out = [(f + a + c, g * h, d) for f, g, d in out for a, c, h in options]
        elif not reached >> r & 1:
            s = shift[r]
            out = [(f + a, g * h, d + c * s) for f, g, d in out for a, c, h in options]
    return out


def _sparse_contraction(ends: List[List[tuple]], rows: Sequence[Dict[int, int]], sign: int, parity: int) -> int:
    """The sum of `numeric_invariant_expectation`: over the vertex pairings
    and the index assignments, sign times the form entries times the
    covariance numerators, taken over the covariance's nonzero entries.
    Pairs (p, q) have p < q and read rows[X][Y] with X at p.  At odd
    `parity` the sum over pairings of one assignment is the Pfaffian of
    the covariance block on its components, expanded along its first row:
    pairing the first open position with the k-th later one (from 0)
    carries (-1)^k.

    `ends[p]` lists the strands at the tensor at product position p, each
    as its far end's position and its form entries as (value here times
    this slot's digit, value there times the far slot's digit, entry); a
    strand inside one tensor is listed once, at its tail.

    Pairings grow one pair at a time.  States are grouped by the bitmask
    of positions already reached; a state holds the slot values forced by
    strands from the pairs already taken on the positions not yet
    reached, as one int, the code forced on position r times (N^D)^r.  In
    each group p is the smallest unreached position, paired with each
    later unreached q.  Each choice at p (`_choices`, q unreached) gives
    X and forces the slots of Y that p's strands reach, split off the
    forced values once per q, with the Pfaffian's row sign in its entry
    product; each choice at q (`_choices`, p reached) fixes the rest of
    Y, looked up in row X.  The new states go to the group of
    reached | p | q, where equal forced values merge across the pairings
    that reach the same positions.
    """
    size, n = len(rows), len(ends)
    shift = [size**k for k in range(n)]
    groups: Dict[int, Dict[int, int]] = {0: {0: sign}}  # positions reached -> state -> weight
    for _ in range(n // 2):
        merged: Dict[int, Dict[int, int]] = {}
        for reached, states in groups.items():
            p, *later = (r for r in range(n) if not reached >> r & 1)
            at_p = _choices(ends, p, reached, shift)
            for k, q in enumerate(later):
                sp, sq = shift[p], shift[q]
                odd = parity and k % 2
                xs = [(f, -g if odd else g, d // sq % size, d - d // sq % size * sq) for f, g, d in at_p]
                ys = _choices(ends, q, reached | 1 << p, shift)
                new = merged.setdefault(reached | 1 << p | 1 << q, {})
                for state, weight in states.items():
                    fp = state // sp % size
                    fq = state // sq % size
                    rest = state - fp * sp - fq * sq
                    for f, g, y, d in xs:
                        row = rows[fp + f]
                        if not row:
                            continue
                        y += fq
                        d += rest
                        g *= weight
                        for fy, h, e in ys:
                            a = row.get(y + fy)
                            if a:
                                key = d + e
                                new[key] = new.get(key, 0) + g * h * a
        groups = merged
    return groups[(1 << n) - 1].get(0, 0)


def numeric_invariant_expectation(
    S: StrandedGraph,
    C: Propagator,
    N: int,
    b: int,
    ref: Optional[DirectedPairing] = None,
) -> Fraction:
    """Evaluate a Gaussian invariant expectation by direct index summation.

    Builds the explicit covariance and sums, over the index assignments
    supported on the strand contractions, the moments of the ordered
    tensor product, with the bosonic or fermionic rule as the component
    parity demands.  Shares no face counting with the stranded-graph
    pipeline; at b = 1 the covariance's grading sign and the invariant's
    sign from `invariant_sign_normal_form` are pairing signs, and at odd
    parity the fermionic moments carry the Pfaffian's row signs.

    Each strand node is compiled once to its tensor position and the
    digit weight of its slot, so a component code is a sum of ints.  The
    sum over assignments and vertex pairings of products of integer
    covariance numerators is one contraction over the covariance's
    nonzero entries that grows the pairings pair by pair
    (`_sparse_contraction`), at either parity: the same terms, regrouped,
    with no assignment listed.  The total is divided by den^(v/2) once at
    the end.  Past `WORK_CAP`, `oracle_work` raises `CapExceededError`
    before the covariance is built.
    """
    if S.vertices == 0:
        return Fraction(1)
    if S.vertices % 2 != 0:
        return Fraction(0)
    form = GradedForm(N, b)
    oracle_work(S, N)
    cov = ExplicitCovariance.from_propagator(C, form)
    if ref is None:
        ref = DirectedPairing(
            S.vertices, tuple((v, v + 1) for v in range(1, S.vertices, 2))
        )
    normal = invariant_sign_normal_form(S, ref)
    sign = normal.sign if b else 1

    # node (v - 1) * D + c -> (position of tensor v in the product, N^(D - c))
    D = S.D
    position = {v: p for p, v in enumerate(ref.flatten())}
    place = [(0, 0)] + [
        (position[(k - 1) // D + 1], N ** (D - 1 - (k - 1) % D))
        for k in range(1, D * S.vertices + 1)
    ]
    lower = sorted(form.lower.items())  # [((i, j), value)]
    # per position, per strand: the far end's position and the strand's form
    # entries (see _sparse_contraction)
    ends: List[List[tuple]] = [[] for _ in range(S.vertices)]
    for k, l in normal.contractions.pairs:
        (pk, wk), (pl, wl) = place[k], place[l]
        ends[pk].append((pl, [(i * wk, j * wl, g) for (i, j), g in lower]))
        if pl != pk:
            ends[pl].append((pk, [(j * wl, i * wk, g) for (i, j), g in lower]))
    total = _sparse_contraction(ends, cov.rows, sign, (b * D) % 2)
    return Fraction(total, cov.den ** (S.vertices // 2))
