"""Reduced-density-matrix arguments for SLOCC non-equivalence.

Two engines live here.  ``reduced_lm_filter`` screens pairs of minimal-support
states (with 2k < N) by deciding monomial equivalence of every (k+1)-party
reduction; for minimal support those reductions are diagonal with distinct
support rows, so the decision is a finite per-site permutation match.

The second engine mechanizes the support-counting proof that the phased
five-party family (d^3 terms) is never locally equivalent to the linear
minimal-support family (d^2 terms): a pair of structured unitaries built from
triangular numbers diagonalizes the 3-party reduction of the phased state
locally, and any would-be equivalence then forces a support of d^4 on a state
with d^3 terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .butson import is_butson
from .equivalence import DEFAULT_MAX_NODES, _iter_support_sigmas
from .phases import ONE, Amp, Phase, exponent_sum_is_zero, root_of_unity
from .states import (MinimalSupportState, _is_prime, ame_linear_5,
                     construct_ame5_phased, reduced_density)


class ReductionError(ValueError):
    pass


@dataclass
class ReductionFilterReport:
    verdict: str                      # "passed" or "failed"
    subsets_checked: int
    failed_subset: Optional[Tuple[int, ...]] = None
    reason: Optional[str] = None
    exact: bool = True

    @property
    def passed(self) -> bool:
        return self.verdict == "passed"

    def to_json(self):
        obj = {"verdict": self.verdict, "subsets_checked": self.subsets_checked,
               "exact": self.exact}
        if self.failed_subset is not None:
            obj["failed_subset"] = list(self.failed_subset)
        if self.reason is not None:
            obj["reason"] = self.reason
        return obj


def _projected_support(s: MinimalSupportState, subset) -> List[Tuple[int, ...]]:
    """Projections of the support rows onto the given positions.

    For a minimal-support state and a subset of size > k the projections are
    pairwise distinct: two support rows agree on at most k-1 positions, since
    agreeing on k positions would collide in some index-unity column set.
    """
    rows = [tuple(idx[p] for p in subset) for idx in s.support]
    if len(set(rows)) != len(rows):
        raise ReductionError("projected support rows are not distinct")
    return sorted(rows)


def _supports_permutation_match(rows_a, rows_b, d: int, m: int) -> bool:
    """Does some tuple of per-site symbol permutations map rows_a onto rows_b?

    Both row sets go, as phase-free states on m sites, to the support search
    of the full-state match; their label k = 0 tells it not to assume index
    unity.  Every symbol must occur at every site of rows_a, as it does in a
    projected support.  An exhausted node budget raises EquivalenceError
    rather than reading as "no match".
    """
    if len(rows_a) != len(rows_b):
        return False
    src, dst = (MinimalSupportState(m, d, 0, {row: ONE for row in rows}, check=False)
                for rows in (rows_a, rows_b))
    return next(_iter_support_sigmas(src, dst, DEFAULT_MAX_NODES), None) is not None


def reduced_lm_filter(a: MinimalSupportState, b: MinimalSupportState,
                      subset_size: Optional[int] = None) -> ReductionFilterReport:
    """Necessary condition from (k+1)-party reductions, for 2k < N only.

    Every subset-S reduction of a minimal-support state is diagonal (distinct
    projected rows kill all off-diagonal terms), with uniform weights, so the
    reductions of a and b are monomially equivalent iff per-site symbol
    permutations match their projected supports.  A failure on any subset is
    a complete-search miss and rules out local equivalence of the states.
    """
    if (a.n, a.d, a.k) != (b.n, b.d, b.k):
        raise ReductionError("states must share (n, d, k)")
    if 2 * a.k >= a.n:
        raise ReductionError(
            "the reduction filter needs 2k < N; at 2k = N local equivalences "
            "of the reductions need not come from monomial factors")
    size = subset_size if subset_size is not None else a.k + 1
    if not a.k < size < a.n:
        raise ReductionError("subset size must satisfy k < size < N")
    checked = 0
    for subset in combinations(range(a.n), size):
        checked += 1
        rows_a = _projected_support(a, subset)
        rows_b = _projected_support(b, subset)
        if not _supports_permutation_match(rows_a, rows_b, a.d, size):
            return ReductionFilterReport(
                "failed", checked, failed_subset=subset,
                reason="no per-site permutation matches the projected supports")
    return ReductionFilterReport("passed", checked)


# ---------------------------------------------------------------------------
# The structured diagonalizing unitaries for the five-party argument.
# ---------------------------------------------------------------------------

def _triangular(k: int) -> int:
    return (k + 1) * k // 2


@dataclass
class TriangularMatrixPair:
    """Exponent matrices W, V (mod d) and their phase matrices U4, U5.

    U4 = (w^{W[i][j]}) / sqrt(d) and U5 = (w^{V[i][j]}) / sqrt(d) with w the
    primitive d-th root of unity; both are unitary for every odd d.
    """
    d: int
    w: Tuple[Tuple[int, ...], ...]
    v: Tuple[Tuple[int, ...], ...]

    def u4(self) -> List[List[Phase]]:
        return [[root_of_unity(self.d, e) for e in row] for row in self.w]

    def u5(self) -> List[List[Phase]]:
        return [[root_of_unity(self.d, e) for e in row] for row in self.v]


def _closed_form_w(i: int, j: int, d: int) -> int:
    return (2 * _triangular(j - i - 1)) % d


def _closed_form_v(i: int, j: int, d: int) -> int:
    if i % 2 == 0:
        return (-2 * _triangular(j - i // 2 - 1)) % d
    return (-2 * _triangular(j - (i + d) // 2 - 1)) % d


def build_u4_u5(d: int) -> TriangularMatrixPair:
    """Recursive construction of the diagonalizing pair; d must be odd.

    First rows: w[0][j+1] = w[0][j] + 2j and v[0][j+1] = v[0][j] - 2j, from
    w[0][0] = v[0][0] = 0.  Later rows shift the previous one: w[i][j] =
    w[i-1][j-1], v[i][j] = v[i-2][j-1] (indices mod d; the double step only
    covers every row because d is odd).  A closed formula via triangular
    numbers t_k = (k+1)k/2 is cross-checked entrywise.
    """
    if d < 3 or d % 2 == 0:
        raise ReductionError("the construction needs an odd d >= 3")
    w = [[0] * d for _ in range(d)]
    v = [[0] * d for _ in range(d)]
    for j in range(d - 1):
        w[0][j + 1] = (w[0][j] + 2 * j) % d
        v[0][j + 1] = (v[0][j] - 2 * j) % d
    for i in range(1, d):
        for j in range(d):
            w[i][j] = w[i - 1][(j - 1) % d]
    # rows of v are reachable from row 0 in steps of two (mod d)
    row = 0
    for _ in range(d - 1):
        prev, row = row, (row + 2) % d
        for j in range(d):
            v[row][j] = v[prev][(j - 1) % d]
    for i in range(d):
        for j in range(d):
            if w[i][j] != _closed_form_w(i, j, d):
                raise ReductionError("closed formula disagrees with the "
                                     "recursion for W at (%d, %d)" % (i, j))
            if v[i][j] != _closed_form_v(i, j, d):
                raise ReductionError("closed formula disagrees with the "
                                     "recursion for V at (%d, %d)" % (i, j))
    pair = TriangularMatrixPair(d, tuple(map(tuple, w)), tuple(map(tuple, v)))
    for rows in (pair.u4(), pair.u5()):
        if not is_butson(rows, d):
            raise ReductionError("constructed matrix is not unitary")
    return pair


# ---------------------------------------------------------------------------
# The three-party reduction lemma and the non-equivalence certificate.
# ---------------------------------------------------------------------------

def _conjugated_rho_prime(d: int, w, v):
    """(Id x U4 x U5) rho' (Id x U4 x U5)^dagger as a sparse Amp dict.

    rho' is an ensemble of d^2 orthogonal basis vectors, so the conjugation
    is a sum of outer products of the transformed columns.  w and v are the
    exponent matrices of U4 and U5, so every entry is a sum of d-th roots of
    unity, kept as its integer count per exponent; each distinct count
    vector is zero-tested once.
    """
    dd = d * d
    inv = Fraction(1, d ** 4)  # 1/d^2 ensemble weight, 1/d per unitary factor
    entries: Dict[Tuple[int, ...], Optional[Amp]] = {}  # count vector -> entry
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Amp] = {}
    for s in range(d):
        counts = [[0] * d for _ in range(dd * dd)]  # row x, column y at x*dd + y
        for j in range(d):
            # ensemble vector |i+j, i+2j, i+3j> written with s = i + j
            a, b = (s + j) % d, (s + 2 * j) % d
            # exponent matrices index (input symbol, output symbol), so the
            # column of the applied operator reads the a-th/b-th rows
            col = [wm + vk for wm in w[a] for vk in v[b]]
            for x, ex in enumerate(col):
                base = x * dd
                for y, ey in enumerate(col):
                    counts[base + y][(ex - ey) % d] += 1
        sites = [(s, m, kk) for m in range(d) for kk in range(d)]
        for idx, vec in enumerate(map(tuple, counts)):
            if vec not in entries:
                zero = exponent_sum_is_zero(dict(enumerate(vec)), d)
                entries[vec] = None if zero else Amp(
                    terms={Fraction(e, d): c * inv for e, c in enumerate(vec) if c})
            amp = entries[vec]
            if amp is not None:
                out[(sites[idx // dd], sites[idx % dd])] = amp
    return out


def verify_rho345_lemma(d: int) -> bool:
    """Conjugating the diagonal reduction of the linear family by
    Id x U4 x U5 reproduces the reduction of the phased family exactly."""
    if d % 2 == 0:
        raise ReductionError("the lemma is stated for odd d only")
    pair = build_u4_u5(d)
    got = _conjugated_rho_prime(d, pair.w, pair.v)
    rho = reduced_density(construct_ame5_phased(d), (2, 3, 4)).entries
    return got.keys() == rho.keys() and all(
        rho[key].equals(amp) for key, amp in got.items())


def verify_ame5_nonequivalence(d: int) -> dict:
    """Structured certificate that the phased and linear five-party families
    are not locally equivalent for prime d >= 5.

    Steps: (1) the three-party reductions are monomially related through the
    triangular-number unitaries, so any local equivalence of the full states
    factors as monomial layers times Id x U4 x U5 on the last three sites and
    monomial factors on the first two; (2) every column of U4 x U5 is fully
    dense, so the image of each of the d^2 linear-family terms has support
    d^2, and the forced support d^2 * d^2 = d^4 contradicts the d^3-term
    support of the phased family.
    """
    if not (_is_prime(d) and d >= 5):
        raise ReductionError("the certificate needs a prime d >= 5")
    steps = []
    ok1 = verify_rho345_lemma(d)
    steps.append({"step": "rho345-lemma",
                  "claim": "Id x U4 x U5 conjugates the diagonal 3-party "
                           "reduction of the linear family onto the phased "
                           "family's reduction",
                  "passed": ok1})
    phased = construct_ame5_phased(d)
    linear = ame_linear_5(d)
    supp_phased = len(phased.terms)
    supp_linear = len(linear.phases)
    # build_u4_u5 checks that U4 and U5 are Butson, so every entry of U4 x U5
    # is a root of unity and each column |a,b> has all d^2 entries nonzero
    forced = supp_linear * d * d
    ok3 = (supp_phased == d ** 3 and supp_linear == d ** 2
           and forced != supp_phased)
    steps.append({"step": "support-count",
                  "claim": "monomial outer factors preserve term counts, so "
                           "an equivalence would give the phased state "
                           "support d^4, but it has d^3 terms",
                  "passed": ok3,
                  "phased_support": supp_phased,
                  "linear_support": supp_linear,
                  "forced_support": forced})
    all_passed = all(s["passed"] for s in steps)
    return {"d": d, "steps": steps, "all_passed": all_passed,
            "verdict": "inequivalent" if all_passed else "inconclusive"}
