import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ameslocc import butson
from ameslocc.butson import (ButsonError, ButsonMatrix, _exp_rows_orthogonal,
                             _orthogonality_graph, _zero_sum_rows,
                             all_dephased, dephase, enumerate_bh, fourier,
                             is_butson, monomially_equivalent, tensor_butson)
from ameslocc.phases import ONE, Phase, exponent_sum_is_zero, root_of_unity

# One dephased exponent matrix (entries mod 6) per monomial class of BH(6,6),
# as enumerate_bh(6) returns them (Tadej and Zyczkowski, "A concise guide to
# complex Hadamard matrices", 2006, list four classes).
BH6_CLASSES = (
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 3, 3, 3), (0, 2, 4, 0, 2, 4),
     (0, 2, 4, 3, 5, 1), (0, 4, 2, 0, 4, 2), (0, 4, 2, 3, 1, 5)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 3, 3, 3), (0, 2, 4, 0, 2, 4),
     (0, 2, 4, 3, 5, 1), (0, 4, 2, 1, 5, 3), (0, 4, 2, 4, 2, 0)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 1, 3, 3, 4), (0, 2, 4, 0, 2, 4),
     (0, 2, 5, 3, 5, 2), (0, 4, 2, 0, 4, 2), (0, 4, 3, 3, 1, 0)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 2, 2, 4, 4), (0, 2, 0, 4, 2, 4),
     (0, 2, 4, 0, 4, 2), (0, 4, 2, 4, 0, 2), (0, 4, 4, 2, 2, 0)),
)
BH4_CLASSES = (
    ((0, 0, 0, 0), (0, 0, 2, 2), (0, 2, 0, 2), (0, 2, 2, 0)),
    ((0, 0, 0, 0), (0, 0, 2, 2), (0, 2, 1, 3), (0, 2, 3, 1)),
)


def test_fourier_is_butson():
    f = fourier(3)
    assert is_butson(f.entries, 3)
    assert f[(1, 2)].turn == Fraction(2, 3)


def test_is_butson_rejects_bad_rows():
    f = fourier(3)
    rows = [list(r) for r in f.entries]
    rows[2] = rows[1]  # duplicate rows are never orthogonal
    assert not is_butson(rows, 3)


def test_wrong_complexity_rejected():
    f = fourier(3)
    assert not is_butson(f.entries, 2)
    with pytest.raises(ButsonError):
        ButsonMatrix(f.entries, 2)


def test_dephase_normal_form():
    f = fourier(4)
    scrambled = ButsonMatrix(
        [[f[(i, j)] * root_of_unity(4, i + 2 * j) for j in range(4)]
         for i in range(4)], 4, check=False)
    d = dephase(scrambled)
    assert all(d[(0, j)] == ONE for j in range(4))
    assert all(d[(i, 0)] == ONE for i in range(4))
    assert dephase(d).entries == d.entries


def test_tensor_complexity():
    t = tensor_butson(fourier(2), fourier(3))
    assert t.d == 6 and t.q == 6
    assert is_butson(t.entries, 6)


def test_row_swap_is_monomially_trivial():
    f = fourier(3)
    swapped = ButsonMatrix([f.entries[1], f.entries[0], f.entries[2]], 3,
                           check=False)
    wit = monomially_equivalent(f, swapped)
    assert wit is not None
    p, q, dr, dc = wit
    for i in range(3):
        for j in range(3):
            assert (dr[i] * swapped[(p[i], q[j])] * dc[j]).close_to(f[(i, j)])


def test_f2f3_equals_f6():
    assert monomially_equivalent(tensor_butson(fourier(2), fourier(3)),
                                 fourier(6)) is not None


def test_f2f2_differs_from_f4():
    assert monomially_equivalent(tensor_butson(fourier(2), fourier(2)),
                                 fourier(4)) is None


def test_dephased_counts_small():
    assert len(all_dephased(3)) == 2
    assert len(all_dephased(4)) == 24
    assert len(all_dephased(5)) == 144


def test_class_counts():
    """Counts 1, 2, 1, 4, and the representatives in their pinned order."""
    reps = {d: [m.exponents() for m in enumerate_bh(d)] for d in (3, 4, 5, 6)}
    assert reps == {3: [fourier(3).exponents()], 4: list(BH4_CLASSES),
                    5: [fourier(5).exponents()], 6: list(BH6_CLASSES)}


def test_enumeration_caps():
    with pytest.raises(ButsonError):
        enumerate_bh(7)


def test_census_d7_is_fourier_alone(monkeypatch):
    # the cap guards butson_match's dense layer loop, not the census itself
    monkeypatch.setattr(butson, "_BH_CAP", 7)
    assert [m.exponents() for m in enumerate_bh(7)] == [fourier(7).exponents()]


def direct_orthogonal(row_a, row_b, q):
    """One exact zero test on the difference Counter, per call."""
    return exponent_sum_is_zero(Counter((x - y) % q for x, y in zip(row_a, row_b)), q)


@pytest.mark.parametrize("d", range(2, 8))
def test_zero_sum_rows_match_product_filter(d):
    zeros = (0,) * d
    want = [(0,) + tail for tail in itertools.product(range(d), repeat=d - 1)
            if direct_orthogonal((0,) + tail, zeros, d)]
    assert _zero_sum_rows(d) == want


@pytest.mark.parametrize("d", [4, 5, 6])
def test_orthogonality_graph_matches_direct_tests(d):
    rows = _zero_sum_rows(d)
    want = {i: {j for j, s in enumerate(rows) if j > i and direct_orthogonal(r, s, d)}
            for i, r in enumerate(rows)}
    assert _orthogonality_graph(rows, d) == want


@st.composite
def row_pairs(draw):
    """Rows a, b mod q whose differences are often a union of rotated cosets
    of the p-th roots (p | q, a vanishing sum), sometimes with one entry
    changed."""
    q = draw(st.sampled_from(list(range(2, 13)) + [15, 30]))
    divisors = [p for p in range(2, q + 1) if q % p == 0]
    diff = []
    for p in draw(st.lists(st.sampled_from(divisors), max_size=3)):
        shift = draw(st.integers(0, q - 1))
        diff += [shift + k * (q // p) for k in range(p)]
    diff += draw(st.lists(st.integers(0, q - 1), max_size=2))
    if not diff:
        diff = [draw(st.integers(0, q - 1))]
    diff = draw(st.permutations(diff))
    b = draw(st.lists(st.integers(0, q - 1), min_size=len(diff), max_size=len(diff)))
    return [(x + y) % q for x, y in zip(diff, b)], b, q


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_exp_rows_orthogonal_matches_direct_test(pair):
    a, b, q = pair
    assert _exp_rows_orthogonal(a, b, q) == direct_orthogonal(a, b, q)


def _phase_rows(m):
    """m's entries as the turns of its Phases, row by row."""
    return [[m[(i, j)].turn for j in range(m.d)] for i in range(m.d)]


def test_json_roundtrip():
    for m in [fourier(4), tensor_butson(fourier(2), fourier(2))] + enumerate_bh(6):
        obj = m.to_json()
        assert obj["rows"] == [[p.to_json() for p in row] for row in m.entries]
        g = ButsonMatrix.from_json(obj)
        assert g == m and g.q == m.q and _phase_rows(g) == _phase_rows(m)


def test_exponents_accessor():
    assert fourier(3).exponents() == ((0, 0, 0), (0, 1, 2), (0, 2, 1))


def test_exponents_reject_inexact_roots():
    # the constructor reads the entries once, so the raise comes there
    i, minus_i = root_of_unity(4, 1), root_of_unity(4, 3)
    rows = [[ONE, i], [ONE, minus_i]]
    with pytest.raises(ButsonError):
        ButsonMatrix(rows, 2, check=False)
    with pytest.raises(ButsonError):
        ButsonMatrix([[ONE, Phase(0.25)], [ONE, Phase(0.75)]], 4, check=False)
    assert not is_butson(rows, 2)
    assert is_butson(rows, 4)
    assert ButsonMatrix(rows, 4).exponents() == ((0, 1), (0, 3))


@pytest.mark.parametrize("q", [0, -2, 2.0, "2", None])
def test_complexity_must_be_a_positive_int(q):
    with pytest.raises(ButsonError):
        ButsonMatrix([[ONE]], q, check=False)
    assert not is_butson([[ONE]], q)


def test_fourier_entries_match_phase_powers():
    for d in range(1, 8):
        w = root_of_unity(d)
        assert _phase_rows(fourier(d)) == [[(w ** (j * k)).turn for k in range(d)]
                                           for j in range(d)]


@pytest.mark.parametrize("da, db", [(2, 3), (2, 2), (3, 2)])
def test_tensor_entries_match_phase_products(da, db):
    a, b = fourier(da), fourier(db)
    t = tensor_butson(a, b)
    d = da * db
    assert t.q == math.lcm(da, db)
    assert _phase_rows(t) == [[(a[(i // db, j // db)] * b[(i % db, j % db)]).turn
                               for j in range(d)] for i in range(d)]


def test_dephase_entries_match_phase_quotients():
    for m in [fourier(5), tensor_butson(fourier(2), fourier(3))] + enumerate_bh(6):
        m = ButsonMatrix([[m[(i, j)] * root_of_unity(m.q, 2 * i + 3 * j * j)
                           for j in range(m.d)] for i in range(m.d)], m.q)
        e = m.entries
        assert _phase_rows(dephase(m)) == [[(e[i][j] / e[i][0] / e[0][j] * e[0][0]).turn
                                            for j in range(m.d)] for i in range(m.d)]


def test_equality_ignores_q():
    # F2 x F2 over q = 2 and the same entries read over q = 4
    f22 = tensor_butson(fourier(2), fourier(2))
    wide = ButsonMatrix(f22.entries, 4)
    assert wide.exponents() == tuple(tuple(2 * e for e in row) for row in f22.exponents())
    assert wide == f22 and hash(wide) == hash(f22)
    assert wide != fourier(4)


def _reference_witness(a, b):
    """Unpruned scan over integer exponents mod Q = lcm(a.q, b.q): every
    anchor (r0, c0) of b whose dephased rows have a's sorted contents, every
    order of the other rows, columns by first unused lookup, diagonals
    recovered from row and column 0 and checked entry by entry."""
    big_q = math.lcm(a.q, b.q)

    def exps(m):
        out = [[p.turn * big_q for p in row] for row in m.entries]
        assert all(x.denominator == 1 for row in out for x in row)
        return [[int(x) for x in row] for row in out]

    def anchored(e, r0, c0):
        return [[(e[r][c] - e[r][c0] - e[r0][c] + e[r0][c0]) % big_q
                 for c in range(len(e))] for r in range(len(e))]

    ea, eb = exps(a), exps(b)
    d = len(ea)
    da = anchored(ea, 0, 0)
    rows_a = sorted(sorted(row) for row in da)
    for r0, c0 in itertools.product(range(d), repeat=2):
        c = anchored(eb, r0, c0)
        if sorted(sorted(row) for row in c) != rows_a:
            continue
        for perm in itertools.permutations([r for r in range(d) if r != r0]):
            p = [r0] + list(perm)
            q = []
            for j in range(d):
                col = [da[i][j] for i in range(d)]
                free = [x for x in range(d) if x not in q
                        and [c[p[i]][x] for i in range(d)] == col]
                if not free:
                    break
                q.append(free[0])
            else:
                dr = [(ea[i][0] - eb[p[i]][q[0]]) % big_q for i in range(d)]
                dc = [(ea[0][j] - eb[p[0]][q[j]] - dr[0]) % big_q for j in range(d)]
                if all((dr[i] + eb[p[i]][q[j]] + dc[j] - ea[i][j]) % big_q == 0
                       for i in range(d) for j in range(d)):
                    return tuple(p), tuple(q), big_q, dr, dc
    return None


_F22 = tensor_butson(fourier(2), fourier(2))
# Base matrices by dimension, as (exponents, q); F2 x F2 is over q = 2.
_BASES = {
    4: [(fourier(4).exponents(), 4), (_F22.exponents(), _F22.q)],
    5: [(fourier(5).exponents(), 5)],
    6: [(e, 6) for e in BH6_CLASSES]
       + [(tensor_butson(fourier(2), fourier(3)).exponents(), 6)],
}


@st.composite
def scrambled(draw, base):
    """A random monomial image of a base matrix, over the base's q."""
    e, q = base
    d = len(e)
    p, c = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    dr, dc = (draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
              for _ in range(2))
    return ButsonMatrix([[root_of_unity(q, e[p[i]][c[j]] + dr[i] + dc[j])
                          for j in range(d)] for i in range(d)], q, check=False)


@st.composite
def scrambled_pairs(draw):
    bases = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    return (draw(scrambled(draw(st.sampled_from(bases)))),
            draw(scrambled(draw(st.sampled_from(bases)))))


@settings(max_examples=60, deadline=None)
@given(scrambled_pairs())
def test_monomial_equivalence_matches_unpruned_scan(pair):
    a, b = pair
    wit, ref = monomially_equivalent(a, b), _reference_witness(a, b)
    assert (wit is None) == (ref is None)
    if wit is None:
        return
    p, q, dr, dc = wit
    assert (p, q) == ref[:2]
    assert [x.turn for x in dr] == [Fraction(x, ref[2]) for x in ref[3]]
    assert [x.turn for x in dc] == [Fraction(x, ref[2]) for x in ref[4]]
    for i, j in itertools.product(range(a.d), repeat=2):
        assert (dr[i] * b[(p[i], q[j])] * dc[j]).turn == a[(i, j)].turn
