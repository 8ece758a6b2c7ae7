"""Butson-type complex Hadamard matrices BH(d, q).

A BH(d, q) matrix has q-th-root-of-unity entries and becomes unitary after
scaling by 1/sqrt(d).  Entries are stored unscaled; every orthogonality test
is an exact vanishing-sum-of-roots-of-unity check whenever the entries are
rational turns.

Matrices are classified up to monomial equivalence (row/column permutations
and unit-diagonal scalings); the dephased form (first row and column all
ones) canonicalizes the diagonal part.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import List, Sequence, Tuple

from .phases import Phase, exponent_sum_is_zero, root_of_unity


class ButsonError(ValueError):
    pass


class ButsonMatrix:
    def __init__(self, entries: Sequence[Sequence[Phase]], q: int, check: bool = True):
        self.entries = tuple(tuple(row) for row in entries)
        self.d = len(self.entries)
        self.q = q
        if check and not is_butson(self.entries, q):
            raise ButsonError("not a Butson matrix of complexity %d" % q)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def exponents(self) -> Tuple[Tuple[int, ...], ...]:
        """Entries as integer exponents of the primitive q-th root."""
        out = []
        for row in self.entries:
            out.append(tuple(int(p.turn * self.q) for p in row))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, ButsonMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_json(self):
        return {"d": self.d, "q": self.q,
                "rows": [[p.to_json() for p in row] for row in self.entries]}

    @staticmethod
    def from_json(obj) -> "ButsonMatrix":
        rows = [[Phase.from_json(p) for p in row] for row in obj["rows"]]
        return ButsonMatrix(rows, obj["q"])

    def __repr__(self):
        return "ButsonMatrix(d=%d, q=%d)" % (self.d, self.q)


def fourier(d: int) -> ButsonMatrix:
    """The Fourier matrix F_d with entries w^(jk)."""
    if d < 1:
        raise ButsonError("d must be positive")
    rows = [[root_of_unity(d, j * k) for k in range(d)] for j in range(d)]
    return ButsonMatrix(rows, d, check=False)


def is_butson(entries, q: int) -> bool:
    """Entries are q-th roots of unity and rows are pairwise orthogonal."""
    d = len(entries)
    if any(len(row) != d for row in entries):
        return False
    for row in entries:
        for p in row:
            if not p.is_exact or (p.turn * q).denominator != 1:
                return False
    exps = [[int(p.turn * q) for p in row] for row in entries]
    return all(_exp_rows_orthogonal(exps[i], exps[j], q)
               for i in range(d) for j in range(i + 1, d))


def tensor_butson(a: ButsonMatrix, b: ButsonMatrix) -> ButsonMatrix:
    import math
    d = a.d * b.d
    rows = [[a[(i // b.d, j // b.d)] * b[(i % b.d, j % b.d)] for j in range(d)]
            for i in range(d)]
    return ButsonMatrix(rows, math.lcm(a.q, b.q), check=False)


def dephase(m: ButsonMatrix) -> ButsonMatrix:
    """Scale rows and columns so the first row and column are all ones."""
    return ButsonMatrix(_anchored_form(m, 0, 0), m.q, check=False)


def _anchored_form(b: ButsonMatrix, r0: int, c0: int):
    """Dephased form of b after moving row r0 and column c0 to the front."""
    e = b.entries
    return tuple(
        tuple(e[r][c] / e[r][c0] / e[r0][c] * e[r0][c0] for c in range(b.d))
        for r in range(b.d))


def monomially_equivalent(a: ButsonMatrix, b: ButsonMatrix):
    """Witness (p, q, dr, dc) with a[i][j] = dr[i]*b[p[i]][q[j]]*dc[j], or None.

    The search runs over dephasing anchors of b and row permutations; the
    column permutation is then forced by column lookup, making the scan
    complete over all monomial pairs.
    """
    if a.d != b.d:
        return None
    d = a.d
    da = _anchored_form(a, 0, 0)
    da_rows = _row_multiset(da)
    for r0 in range(d):
        for c0 in range(d):
            c = _anchored_form(b, r0, c0)
            # quick multiset check on row contents before permuting
            if _row_multiset(c) != da_rows:
                continue
            # match rows of da against rows of c; row 0 of da is all ones and
            # row r0 of c is all ones, so pair those and permute the rest
            rest = [r for r in range(d) if r != r0]
            for perm in itertools.permutations(rest):
                p = [r0] + list(perm)
                # deduce the column permutation by matching columns
                cols_c = {}
                for j in range(d):
                    col = tuple(c[p[i]][j] for i in range(d))
                    cols_c.setdefault(col, []).append(j)
                q: List[int] = []
                used = set()
                ok = True
                for j in range(d):
                    col = tuple(da[i][j] for i in range(d))
                    cand = [x for x in cols_c.get(col, []) if x not in used]
                    if not cand:
                        ok = False
                        break
                    q.append(cand[0])
                    used.add(cand[0])
                if not ok:
                    continue
                dr, dc = _recover_diagonals(a, b, p, q)
                if dr is not None:
                    return tuple(p), tuple(q), dr, dc
    return None


def _row_multiset(rows):
    return sorted(sorted(x.turn for x in row) for row in rows)


def _recover_diagonals(a, b, p, q):
    d = a.d
    dr = [a[(i, 0)] / b[(p[i], q[0])] for i in range(d)]
    dc = [a[(0, j)] / b[(p[0], q[j])] / dr[0] for j in range(d)]
    for i in range(d):
        for j in range(d):
            if not (dr[i] * b[(p[i], q[j])] * dc[j]).close_to(a[(i, j)]):
                return None, None
    return dr, dc


def _exp_rows_orthogonal(row_a, row_b, q) -> bool:
    """Exponent rows a, b (mod q) are orthogonal: sum_j w^(a_j - b_j) vanishes
    exactly, w the primitive q-th root of unity."""
    return exponent_sum_is_zero(Counter((x - y) % q for x, y in zip(row_a, row_b)), q)


def _zero_sum_rows(d: int):
    """All exponent tuples (0, e1, ..., e_{d-1}) whose d-th-root sum vanishes,
    i.e. that are orthogonal to the all-zeros row."""
    zeros = (0,) * d
    return [(0,) + tail for tail in itertools.product(range(d), repeat=d - 1)
            if _exp_rows_orthogonal((0,) + tail, zeros, d)]


def _exp_to_matrix(rows, d) -> ButsonMatrix:
    return ButsonMatrix([[root_of_unity(d, e) for e in row] for row in rows],
                        d, check=False)


def _sorted_dephased(d: int) -> List[List[Tuple[int, ...]]]:
    """Exponent rows of every dephased BH(d,d) matrix whose rows are in
    lexicographic order (complete backtracking over pairwise orthogonal
    zero-sum rows)."""
    cands = sorted(_zero_sum_rows(d))
    ortho = {}
    for i, r in enumerate(cands):
        ortho[i] = {j for j, s in enumerate(cands)
                    if j > i and _exp_rows_orthogonal(r, s, d)}
    sorted_sets = []

    def rec(chosen: List[int], pool: set):
        if len(chosen) == d - 1:
            sorted_sets.append([(0,) * d] + [cands[i] for i in chosen])
            return
        for i in sorted(pool):
            rec(chosen + [i], pool & ortho[i])

    rec([], set(range(len(cands))))
    return sorted_sets


def all_dephased(d: int) -> List[ButsonMatrix]:
    """Every dephased BH(d,d) matrix: each ordering of rows 1..d-1 of each
    sorted dephased matrix, in lexicographic order."""
    if d < 2:
        raise ButsonError("need d >= 2")
    found = sorted([rows[0]] + list(perm) for rows in _sorted_dephased(d)
                   for perm in itertools.permutations(rows[1:]))
    return [_exp_to_matrix(rows, d) for rows in found]


def _haagerup_key(m: ButsonMatrix):
    """Multiset of all quartic phase products, invariant under monomial maps."""
    d = m.d
    vals = []
    e = m.entries
    for i in range(d):
        for k in range(d):
            for j in range(d):
                for l in range(d):
                    vals.append((e[i][j] * e[k][l] / e[i][l] / e[k][j]).turn)
    return tuple(sorted((t.numerator, t.denominator) for t in vals))


_BH_CAP = 6


def enumerate_bh(d: int) -> List[ButsonMatrix]:
    """Representatives of BH(d,d) up to monomial equivalence, 2 <= d <= 6.

    Enumerates dephased matrices with lexicographically sorted rows (a cheap
    symmetry reduction), buckets them by a monomial invariant, and confirms
    class distinctness with the complete equivalence search.
    """
    if not 2 <= d <= _BH_CAP:
        raise ButsonError("enumeration supported for 2 <= d <= %d only" % _BH_CAP)
    buckets = {}
    reps: List[ButsonMatrix] = []
    for rows in _sorted_dephased(d):
        m = _exp_to_matrix(rows, d)
        key = _haagerup_key(m)
        bucket = buckets.setdefault(key, [])
        if any(monomially_equivalent(m, r) is not None for r in bucket):
            continue
        bucket.append(m)
        reps.append(m)
    reps.sort(key=lambda m: m.exponents())
    return reps
