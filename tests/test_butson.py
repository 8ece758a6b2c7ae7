import random
from fractions import Fraction

import pytest

from ameslocc.butson import (ButsonError, ButsonMatrix, _haagerup_key,
                             all_dephased, dephase, enumerate_bh, fourier,
                             is_butson, monomially_equivalent, tensor_butson)
from ameslocc.phases import ONE, Phase, root_of_unity


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
    assert len(enumerate_bh(3)) == 1
    assert len(enumerate_bh(4)) == 2
    assert len(enumerate_bh(5)) == 1


def test_enumeration_caps():
    with pytest.raises(ButsonError):
        enumerate_bh(7)


def test_haagerup_invariant_under_scrambles():
    rng = random.Random(3)
    f = fourier(5)
    key = _haagerup_key(f)
    for _ in range(5):
        p = list(range(5))
        q = list(range(5))
        rng.shuffle(p)
        rng.shuffle(q)
        dr = [root_of_unity(5, rng.randrange(5)) for _ in range(5)]
        dc = [root_of_unity(5, rng.randrange(5)) for _ in range(5)]
        scr = ButsonMatrix(
            [[dr[i] * f[(p[i], q[j])] * dc[j] for j in range(5)]
             for i in range(5)], 5, check=False)
        assert _haagerup_key(scr) == key


def test_json_roundtrip():
    f = fourier(4)
    g = ButsonMatrix.from_json(f.to_json())
    assert g == f and g.q == 4


def test_exponents_accessor():
    assert fourier(3).exponents() == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
