"""Reduced-density-matrix arguments for SLOCC non-equivalence.

This module mechanizes the support-counting proof that the phased
five-party family (d^3 terms) is never locally equivalent to the linear
minimal-support family (d^2 terms): a pair of structured unitaries built from
triangular numbers diagonalizes the 3-party reduction of the phased state
locally, and any would-be equivalence then forces a support of d^4 on a state
with d^3 terms.  ``decide_slocc`` reaches it for that pair alone; pairs of
minimal-support states are decided by ``equivalence.lm_match``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product
from typing import Dict, List, Optional, Tuple

from .butson import _exp_rows_orthogonal
from .phases import Amp, Phase, count_vector, root_of_unity, vanishes
from .states import _is_prime, ame_linear_5, construct_ame5_phased, reduced_density


class ReductionError(ValueError):
    pass


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
    for rows in (pair.w, pair.v):
        if not all(_exp_rows_orthogonal(r, t, d) for r, t in combinations(rows, 2)):
            raise ReductionError("constructed matrix is not unitary")
    return pair


# ---------------------------------------------------------------------------
# The three-party reduction lemma and the non-equivalence certificate.
# ---------------------------------------------------------------------------

def _conjugated_rho_prime(d: int, w, v):
    """(Id x U4 x U5) rho' (Id x U4 x U5)^dagger as a sparse Amp dict.

    rho' is an ensemble of d^2 orthogonal basis vectors, so the conjugation
    is a sum of outer products of the transformed columns: entry (x, y) of
    block s counts the exponents e_x - e_y mod d, read from w and v, the
    exponent matrices of U4 and U5.  Those histograms are packed one byte
    per exponent slot, 2d slots per column y, into one int per row x: each
    ensemble vector shifts a base int (a 1 at slot -e_y mod d of every
    column) by e_x slots into each row.  Folding the two halves of a column
    gives its count vector (no count exceeds d < 256), sliced from the
    block's bytes; ``phases.vanishes`` tests each distinct vector once.
    """
    if d > 255:
        raise ReductionError("one byte per exponent slot needs d < 256")
    dd, width = d * d, 2 * d
    low = int.from_bytes((b"\xff" * d + bytes(d)) * dd, "little")
    units = [bytes(int(i == -e % d) for i in range(width)) for e in range(d)]
    entries: Dict[bytes, Optional[Amp]] = {}  # count vector -> entry
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Amp] = {}
    for s in range(d):
        rows = [0] * dd
        for j in range(d):
            # ensemble vector |i+j, i+2j, i+3j> written with s = i + j
            a, b = (s + j) % d, (s + 2 * j) % d
            # exponent matrices index (input symbol, output symbol), so the
            # column of the applied operator reads the a-th/b-th rows
            col = [(wm + vk) % d for wm in w[a] for vk in v[b]]
            base = int.from_bytes(b"".join(map(units.__getitem__, col)), "little")
            shifted = [base << 8 * e for e in range(d)]
            rows = [r + shifted[e] for r, e in zip(rows, col)]
        block = b"".join([((r & low) + ((r >> 8 * d) & low)).to_bytes(
            width * dd, "little") for r in rows])
        vecs = [block[i:i + d] for i in range(0, len(block), width)]
        for vec in set(vecs).difference(entries):
            counts = count_vector(dict(enumerate(vec)))
            # 1/d^2 ensemble weight, 1/d per unitary factor
            entries[vec] = None if vanishes(counts, d) else Amp.from_counts(
                d, dict(counts), d ** 4)
        amps = list(map(entries.__getitem__, vecs))
        sites = [(s, m, kk) for m in range(d) for kk in range(d)]
        out.update(zip(compress(product(sites, sites), amps),
                       compress(amps, amps)))
    return out


def verify_rho345_lemma(d: int) -> bool:
    """Conjugating the diagonal reduction of the linear family by
    Id x U4 x U5 reproduces the reduction of the phased family exactly."""
    if d % 2 == 0 or d > 255:  # one byte per count, checked before the d^3 terms
        raise ReductionError("the lemma is checked for odd d < 256 only")
    return _rho345_lemma_holds(d, construct_ame5_phased(d))


def _rho345_lemma_holds(d: int, phased) -> bool:
    """verify_rho345_lemma for odd d, against ``phased``, the state
    construct_ame5_phased(d) returns."""
    pair = build_u4_u5(d)
    got = _conjugated_rho_prime(d, pair.w, pair.v)
    rho = reduced_density(phased, (2, 3, 4)).entries
    # both sides share one Amp per count vector: compare each pair once
    return got.keys() == rho.keys() and all(
        a.equals(b) for a, b in {(rho[key], amp) for key, amp in got.items()})


def verify_ame5_nonequivalence(d: int) -> dict:
    """Structured certificate that the phased and linear five-party families
    are not locally equivalent for prime d >= 5, checked for d < 256.

    Steps: (1) the three-party reductions are monomially related through the
    triangular-number unitaries, so any local equivalence of the full states
    factors as monomial layers times Id x U4 x U5 on the last three sites and
    monomial factors on the first two; (2) every column of U4 x U5 is fully
    dense, so the image of each of the d^2 linear-family terms has support
    d^2, and the forced support d^2 * d^2 = d^4 contradicts the d^3-term
    support of the phased family.

    The report depends on d alone, so it is built once per d.  Each call
    returns a copy of its dict and of each step's dict, whose values are
    all immutable, so no caller can change the next call's report.
    """
    if not (_is_prime(d) and 5 <= d < 256):  # the lemma's d < 256, checked first
        raise ReductionError("the certificate needs a prime 5 <= d < 256")
    report = _ame5_certificate(d)
    return {**report, "steps": [dict(step) for step in report["steps"]]}


@lru_cache(maxsize=None)
def _ame5_certificate(d: int) -> dict:
    """The report of ``verify_ame5_nonequivalence`` for a validated d."""
    steps = []
    phased = construct_ame5_phased(d)
    ok1 = _rho345_lemma_holds(d, phased)
    steps.append({"step": "rho345-lemma",
                  "claim": "Id x U4 x U5 conjugates the diagonal 3-party "
                           "reduction of the linear family onto the phased "
                           "family's reduction",
                  "passed": ok1})
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
