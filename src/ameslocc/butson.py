"""Butson-type complex Hadamard matrices BH(d, q).

A BH(d, q) matrix has q-th-root-of-unity entries and becomes unitary after
scaling by 1/sqrt(d).  A ``ButsonMatrix`` is its exponent rows: entry
(i, j) is w^e[i][j], w the primitive q-th root of unity, e[i][j] in [0, q).
The constructor reads Phase entries once; Phases are made again only for
``entries``, indexing and JSON.  Orthogonality is an exact
vanishing-sum-of-roots-of-unity check, made once per count vector
(``phases.vanishes``).

Matrices are classified up to monomial equivalence (row/column permutations
and unit-diagonal scalings), decided on dephased exponent matrices (first
row and column all zeros) by placing one row at a time under column-prefix
pruning.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import List, Sequence, Tuple

from .phases import Phase, count_vector, root_of_unity, turn_numerators, vanishes


class ButsonError(ValueError):
    pass


class ButsonMatrix:
    def __init__(self, entries: Sequence[Sequence[Phase]], q: int, check: bool = True):
        if type(q) is not int or q < 1:
            raise ButsonError("complexity must be an integer >= 1, got %r" % (q,))
        rows = [tuple(row) for row in entries]
        mod, turns = turn_numerators(p for row in rows for p in row)
        if not isinstance(mod, int) or q % mod:
            raise ButsonError("entries are not all %d-th roots of unity" % q)
        turns = iter([t * (q // mod) for t in turns])
        self._exps = tuple(tuple(itertools.islice(turns, len(row))) for row in rows)
        self.d, self.q = len(rows), q
        if check and not (all(len(row) == self.d for row in self._exps) and all(
                _exp_rows_orthogonal(a, b, q)
                for a, b in itertools.combinations(self._exps, 2))):
            raise ButsonError("not a Butson matrix of complexity %d" % q)

    @classmethod
    def from_exponents(cls, rows, q: int) -> "ButsonMatrix":
        """The matrix with entries w^rows[i][j], rows in [0, q), unchecked."""
        m = cls.__new__(cls)
        m._exps, m.d, m.q = tuple(map(tuple, rows)), len(rows), q
        return m

    @property
    def entries(self) -> Tuple[Tuple[Phase, ...], ...]:
        return tuple(tuple(root_of_unity(self.q, e) for e in row) for row in self._exps)

    def __getitem__(self, ij):
        return root_of_unity(self.q, self._exps[ij[0]][ij[1]])

    def exponents(self) -> Tuple[Tuple[int, ...], ...]:
        """Entries as exponents of the primitive q-th root."""
        return self._exps

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
    return ButsonMatrix.from_exponents([[j * k % d for k in range(d)] for j in range(d)], d)


def is_butson(entries, q: int) -> bool:
    """Entries are q-th roots of unity and rows are pairwise orthogonal."""
    try:
        ButsonMatrix(entries, q)
    except ButsonError:
        return False
    return True


def tensor_butson(a: ButsonMatrix, b: ButsonMatrix) -> ButsonMatrix:
    q = math.lcm(a.q, b.q)
    sa, sb, ea, eb = q // a.q, q // b.q, a.exponents(), b.exponents()
    d = a.d * b.d
    return ButsonMatrix.from_exponents(
        [[(ea[i // b.d][j // b.d] * sa + eb[i % b.d][j % b.d] * sb) % q for j in range(d)]
         for i in range(d)], q)


def dephase(m: ButsonMatrix) -> ButsonMatrix:
    """Scale rows and columns so the first row and column are all ones."""
    return ButsonMatrix.from_exponents(_anchored(m.exponents(), 0, 0, m.q), m.q)


def _anchored(e, r0: int, c0: int, q: int):
    """e[r][c] - e[r][c0] - e[r0][c] + e[r0][c0] mod q: e dephased at (r0, c0)."""
    return tuple(tuple((x - row[c0] - y + e[r0][c0]) % q
                       for x, y in zip(row, e[r0])) for row in e)


def monomially_equivalent(a: ButsonMatrix, b: ButsonMatrix):
    """Witness (p, q, dr, dc) with a[i][j] = dr[i]*b[p[i]][q[j]]*dc[j], or None.

    Runs _monomial_witness on the exponent rows of a and b lifted to
    Q = lcm(a.q, b.q) and turns its diagonal exponents into Q-th roots of
    unity.
    """
    if a.d != b.d:
        return None
    big_q = math.lcm(a.q, b.q)
    ea, eb = ([[e * (big_q // m.q) for e in row] for row in m.exponents()] for m in (a, b))
    found = _monomial_witness(_witness_tables(ea, big_q), eb, big_q)
    if found is None:
        return None
    p, q, dr, dc = found
    return p, q, [root_of_unity(big_q, x) for x in dr], [root_of_unity(big_q, x) for x in dc]


def _witness_tables(ea, big_q):
    """ea with what ``_monomial_witness`` compares each anchor with: ea at
    (0, 0) dephased, and its sorted rows (in place and in order), sorted
    columns and sorted column-prefix tuples."""
    da = _anchored(ea, 0, 0, big_q)
    rows_a = [tuple(sorted(row)) for row in da]
    return (ea, da, rows_a, sorted(rows_a), sorted(sorted(col) for col in zip(*da)),
            [sorted(zip(*da[:t])) for t in range(len(ea) + 1)])


def _monomial_witness(tables, eb, big_q):
    """(p, q, dr, dc) with ea[i][j] = dr[i] + eb[p[i]][q[j]] + dc[j] mod Q,
    the diagonals as exponents, or None; ea and eb are d x d exponent rows,
    ea given by its ``_witness_tables``.

    For each anchor (r0, c0) of b, in order, whose dephased form has the
    sorted row and then the sorted column contents of dephased a, rows of
    dephased a are placed one at a time: row 0 on r0, row i on an unused row
    with the same sorted contents, ascending, kept while the sorted
    column-prefix tuples equal a's.  Every completion keeps them, so the
    first witness is that of a plain scan over row permutations.  Columns
    follow by lookup; the diagonals are recovered and checked mod Q.  The
    dephased form at (r0, c0) is D[r][c] - D[r][c0] with D[r] = eb[r] - eb[r0],
    so D is built once per r0 and shifted for each c0.
    """
    ea, da, rows_a, sorted_rows_a, cols_a, prefixes_a = tables
    d = len(ea)

    def placements(c, rows_c, p, cols):
        """Column tuples of c under each passing completion of p, in order."""
        i = len(p)
        if i == d:
            yield cols
            return
        for r in range(d):
            if rows_c[r] == rows_a[i] and r not in p:
                ext = [col + (x,) for col, x in zip(cols, c[r])]
                if sorted(ext) == prefixes_a[i + 1]:
                    p.append(r)
                    yield from placements(c, rows_c, p, ext)
                    p.pop()

    for r0 in range(d):
        diffs = [[x - y for x, y in zip(row, eb[r0])] for row in eb]
        for c0 in range(d):
            c = [[(x - row[c0]) % big_q for x in row] for row in diffs]
            rows_c = [tuple(sorted(row)) for row in c]
            if (sorted(rows_c) != sorted_rows_a
                    or sorted(sorted(col) for col in zip(*c)) != cols_a):
                continue
            p = [r0]
            for cols_c in placements(c, rows_c, p, [(x,) for x in c[r0]]):
                slots = {}
                for j, col in enumerate(cols_c):
                    slots.setdefault(col, []).append(j)
                q = [slots[col].pop(0) for col in zip(*da)]
                dr = [(ea[i][0] - eb[p[i]][q[0]]) % big_q for i in range(d)]
                dc = [(ea[0][j] - eb[p[0]][q[j]] - dr[0]) % big_q for j in range(d)]
                if all((dr[i] + eb[p[i]][q[j]] + dc[j] - ea[i][j]) % big_q == 0
                       for i in range(d) for j in range(d)):
                    return tuple(p), tuple(q), dr, dc
    return None


def _exp_rows_orthogonal(row_a, row_b, q) -> bool:
    """Exponent rows a, b (mod q) are orthogonal: sum_j w^(a_j - b_j) vanishes
    exactly, w the primitive q-th root of unity."""
    return vanishes(count_vector(Counter((x - y) % q for x, y in zip(row_a, row_b))), q)


def _zero_sum_rows(d: int):
    """All exponent tuples (0, e1, ..., e_{d-1}) whose d-th-root sum vanishes,
    i.e. that are orthogonal to the all-zeros row, in lexicographic order.

    Each multiset of tails is one count vector; it is tested once, and only
    a vanishing one is expanded to its distinct orderings.
    """
    rows = []
    for tail in itertools.combinations_with_replacement(range(d), d - 1):
        if vanishes(count_vector(Counter((0,) + tail)), d):
            rows.extend((0,) + t for t in set(itertools.permutations(tail)))
    return sorted(rows)


def _orthogonality_graph(rows, d: int):
    """{i: {j > i with rows[i], rows[j] orthogonal}} for rows = _zero_sum_rows(d).

    Two rows r, s that start at 0 are orthogonal exactly when (s - r) mod d
    is a zero-sum row: it starts at 0 and its root sum is sum_j w^(s_j - r_j).
    So each edge is one set lookup.  Rows are packed one byte per entry
    (d < 128): every byte of s + d - r lies in [1, 2d), so no borrow crosses
    bytes, and adding 128 - d sets a byte's top bit exactly where it is at
    least d, which marks where d comes off to reduce mod d.
    """
    packed = [int.from_bytes(bytes(r), "little") for r in rows]
    all_d, ones, top = (int.from_bytes(bytes([x] * d), "little") for x in (d, 1, 128 - d))
    zero_sum = set(packed)
    return {i: {j for j in range(i + 1, len(rows))
                if (v := packed[j] + all_d - r) - ((v + top) >> 7 & ones) * d in zero_sum}
            for i, r in enumerate(packed)}


def _sorted_dephased(d: int) -> List[List[Tuple[int, ...]]]:
    """Exponent rows of every dephased BH(d,d) matrix whose rows are in
    lexicographic order (complete backtracking over the orthogonality graph
    of the zero-sum rows)."""
    cands = _zero_sum_rows(d)
    ortho = _orthogonality_graph(cands, d)
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
    return [ButsonMatrix.from_exponents(rows, d) for rows in found]


_BH_CAP = 6


def enumerate_bh(d: int) -> List[ButsonMatrix]:
    """Representatives of BH(d,d) up to monomial equivalence, 2 <= d <= 6.

    Enumerates dephased exponent matrices with sorted rows (a cheap symmetry
    reduction) and keeps each that _monomial_witness relates to no earlier
    one; its sorted-row and sorted-column anchor test rejects most
    non-matches at once; each candidate's ``_witness_tables`` are built
    once.  Only the representatives become ButsonMatrix objects, in order.
    """
    if not 2 <= d <= _BH_CAP:
        raise ButsonError("enumeration supported for 2 <= d <= %d only" % _BH_CAP)
    reps = []
    for rows in _sorted_dephased(d):
        tables = _witness_tables(rows, d)
        if not any(_monomial_witness(tables, r, d) is not None for r in reps):
            reps.append(rows)
    return [ButsonMatrix.from_exponents(rows, d) for rows in sorted(reps)]
