import itertools
import random

import pytest

from ameslocc.designs import (DesignError, LatinHypercube, OrthogonalArray,
                              check_molh, check_oa, extension_bound,
                              find_sub_molh, molh_existence_bound,
                              molh_to_state, mols3, no_molh_exists, oa_to_state,
                              parse_oa_text, small_regime, state_to_molh,
                              state_to_oa, tensor_molh)
from ameslocc.states import construct_ame43, construct_ame44, uniformity


def test_check_oa_index_unity():
    rows = sorted(construct_ame43().support)
    res = check_oa(rows, 3, 2)
    assert res["is_oa"] and res["index"] == 1


def test_check_oa_detects_failure():
    rows = [(0, 0), (0, 1), (1, 0), (1, 0)]
    assert not check_oa(rows, 2, 2)["is_oa"]


def test_oa_state_roundtrip():
    s = construct_ame43()
    oa = state_to_oa(s)
    back = oa_to_state(oa)
    assert back.support == s.support
    assert uniformity(back) == 2


def test_oa_rejects_higher_index():
    # an OA with lambda = 3 is a fine design but not a minimal-support state
    rows = [(i, j) for i in range(3) for j in range(3)]
    oa = OrthogonalArray(rows, 3, 1)
    assert oa.index == 3
    with pytest.raises(DesignError):
        oa_to_state(oa)


def test_parse_oa_text_and_errors():
    oa = parse_oa_text("2 3 2 1\n0 0 0\n1 1 1\n")
    assert oa.ncols == 3 and oa.index == 1
    with pytest.raises(DesignError, match="header"):
        parse_oa_text("2 3 2\n0 0 0\n1 1 1\n")
    with pytest.raises(DesignError, match="symbol"):
        parse_oa_text("2 4 3 2\n0 0 0 0\n0 3 0 0\n")
    with pytest.raises(DesignError, match="strength"):
        parse_oa_text("2 2 2 2\n0 0\n1 1\n")


def test_mols3_known_square():
    L = mols3()
    assert check_molh(L)
    # L(i, j) = (i + j, 2i + j) mod 3
    assert L((1, 2)) == (0, 1)
    assert L((2, 2)) == (1, 0)


def test_state_molh_correspondence():
    assert state_to_molh(construct_ame43()) == mols3()
    back = molh_to_state(mols3())
    assert back.support == construct_ame43().support


def test_state_to_molh_needs_even_split():
    from ameslocc.states import construct_ghz
    with pytest.raises(DesignError):
        state_to_molh(construct_ghz(3, 2))


def test_tensor_molh_order9():
    big = tensor_molh(mols3(), mols3())
    assert big.d == 9
    assert check_molh(big)
    matches, complete = find_sub_molh(big, 3)
    assert complete and len(matches) == 36


def test_existence_bound():
    assert molh_existence_bound(2, 3)
    assert not molh_existence_bound(3, 3)  # k <= d - 1 fails
    assert molh_existence_bound(3, 4)


def test_extension_bound_boundary():
    assert extension_bound(3, 9, 2)
    assert not extension_bound(4, 9, 2)


def test_small_regime_thresholds():
    # smallest d outside the small regime, per uniformity k = 1..4
    thresholds = []
    for k in range(1, 5):
        d = 2
        while small_regime(k, d):
            d += 1
        thresholds.append(d)
    assert thresholds == [3, 9, 11, 13]


def test_small_regime_reads_the_extension_bound():
    # the closed form small_regime was written in before it called
    # extension_bound(k + 1, d, k)
    def closed_form(k, d):
        if k == 1:
            return d < 3
        return (d - k - 1) ** (k - 1) < k * (k + 1) ** (k - 1) if d > k + 1 else True
    assert all(small_regime(k, d) == closed_form(k, d)
               for k in range(1, 7) for d in range(2, 41))


def test_small_regime_k1():
    assert small_regime(1, 2)
    assert not small_regime(1, 3)


def test_no_pair_of_orthogonal_latin_squares_order2():
    # classic: no 2 MOLS(2); the prover must return a definite True
    assert no_molh_exists(2, 2) is True


def test_molh_exists_order3_pair():
    assert no_molh_exists(2, 3) is False


def test_latin_hypercube_slices():
    L = mols3()
    # fixing the first input coordinate, each output coordinate is a bijection
    for fixed in range(3):
        col0 = sorted(L((fixed, j))[0] for j in range(3))
        assert col0 == [0, 1, 2]


def test_ame44_is_two_mols4():
    L = state_to_molh(construct_ame44())
    assert check_molh(L)


def slice_loop_molh(L):
    """Reference: the slice-bijection loop check_molh ran before it became
    one index-unity OA check."""
    k, d = L.k, L.d
    if len(set(L.table.values())) != d ** k:
        return False
    for s in range(1, k + 1):
        for fixed_pos in itertools.combinations(range(k), k - s):
            free_pos = [p for p in range(k) if p not in fixed_pos]
            for out_pos in itertools.combinations(range(k), s):
                for fixed_vals in itertools.product(range(d), repeat=k - s):
                    seen = set()
                    for free_vals in itertools.product(range(d), repeat=s):
                        idx = [0] * k
                        for p, v in zip(fixed_pos, fixed_vals):
                            idx[p] = v
                        for p, v in zip(free_pos, free_vals):
                            idx[p] = v
                        out = L(tuple(idx))
                        seen.add(tuple(out[p] for p in out_pos))
                    if len(seen) != d ** s:
                        return False
    return True


def rescan_no_molh(k, d, node_budget):
    """Reference: the search no_molh_exists ran before it pruned by pairwise
    agreement, re-scanning every slice of every placed input at each node."""
    inputs = list(itertools.product(range(d), repeat=k))
    assignment = {}
    used = set()
    nodes = 0

    def consistent(pos):
        for s in range(1, k + 1):
            for fixed_pos in itertools.combinations(range(k), k - s):
                for out_pos in itertools.combinations(range(k), s):
                    buckets = {}
                    for idx in inputs[:pos + 1]:
                        key = tuple(idx[p] for p in fixed_pos)
                        proj = tuple(assignment[idx][p] for p in out_pos)
                        b = buckets.setdefault(key, set())
                        if proj in b:
                            return False
                        b.add(proj)
        return True

    def rec(pos):
        nonlocal nodes
        if pos == len(inputs):
            return False
        for out in inputs:
            if out in used:
                continue
            nodes += 1
            if nodes > node_budget:
                return None
            assignment[inputs[pos]] = out
            used.add(out)
            if consistent(pos):
                sub = rec(pos + 1)
                if sub is not True:
                    used.discard(out)
                    del assignment[inputs[pos]]
                    return sub
            used.discard(out)
            del assignment[inputs[pos]]
        return True

    return rec(0)


def random_tables(count, seed):
    """Tables L(x) = A x + b mod d with nonzero coefficients in A, half of
    them with two outputs swapped afterwards; symbols stay in range."""
    rng = random.Random(seed)
    for _ in range(count):
        k, d = rng.choice((1, 2, 3)), rng.choice((2, 3, 4))
        a = [[rng.randrange(1, d) for _ in range(k)] for _ in range(k)]
        b = [rng.randrange(d) for _ in range(k)]
        table = {x: tuple((sum(r * v for r, v in zip(row, x)) + c) % d
                          for row, c in zip(a, b))
                 for x in itertools.product(range(d), repeat=k)}
        if rng.random() < 0.5:
            x, y = rng.sample(sorted(table), 2)
            table[x], table[y] = table[y], table[x]
        yield LatinHypercube(k, d, table)


def test_check_molh_matches_slice_loop_on_library_hypercubes():
    for L in (mols3(), tensor_molh(mols3(), mols3()),
              state_to_molh(construct_ame44())):
        assert check_molh(L) is slice_loop_molh(L) is True


def test_check_molh_matches_slice_loop_on_random_tables():
    verdicts = [(check_molh(L), slice_loop_molh(L))
                for L in random_tables(600, seed=19)]
    assert all(new == ref for new, ref in verdicts)
    # both verdicts occur, so the comparison is not vacuous
    assert {new for new, _ in verdicts} == {True, False}


def test_check_molh_rejects_out_of_range_symbol():
    # MOLS(3) with the symbol 3 in place of 0 at (0, 0): the slice loop only
    # counted distinct images, so it accepted this table
    L = LatinHypercube(2, 3, {(i, j): ((i + j) % 3,
                                      (2 * i + j) % 3 + 3 * ((i, j) == (0, 0)))
                              for i in range(3) for j in range(3)})
    assert slice_loop_molh(L)
    assert not check_molh(L)


@pytest.mark.parametrize("k, d, n, verdict", [
    (2, 2, 24, True), (2, 3, 26, False), (3, 3, 11313, True),
    (2, 4, 76, False), (3, 4, 1072, False)])
def test_no_molh_exists_matches_rescan_search(k, d, n, verdict):
    # n is the node count of the full search: one node fewer runs out
    assert no_molh_exists(k, d, n - 1) is rescan_no_molh(k, d, n - 1) is None
    assert no_molh_exists(k, d, n) is rescan_no_molh(k, d, n) is verdict
    for budget in (1, 5, 10 ** 8):
        assert no_molh_exists(k, d, budget) is rescan_no_molh(k, d, budget)
