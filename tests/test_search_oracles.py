"""The support search and the mod-1 solve against the algorithms they replaced.

``solve_turn_system`` eliminates each coefficient matrix once and replays
the recorded row operations on every right-hand side, and
``_iter_support_sigmas`` finds the image of a source row with one lookup
once k of its symbols are mapped.  The straightforward versions below
eliminate [A | b] afresh for every system and scan every destination row for
every source row.  The package must reproduce them exactly: the same theta
(or None) for every system, and the same permutation tuples in the same
order.
"""

import random
from fractions import Fraction

import pytest

from ameslocc.equivalence import _iter_support_sigmas
from ameslocc.modsolve import solve_turn_system
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import get_tolerance, root_of_unity
from ameslocc.states import (ame64_phi, ame_linear_5, construct_ame43,
                             construct_ame44)


def reference_solve(rows, rhs, num_vars, exact=True):
    """Joint integer elimination of [A | b] on every call."""
    m = len(rows)
    a = [list(map(int, r)) for r in rows]
    b = [Fraction(x) for x in rhs] if exact else [float(x) for x in rhs]
    pivots = []
    prow = 0
    for col in range(num_vars):
        sel = next((i for i in range(prow, m) if a[i][col]), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        b[prow], b[sel] = b[sel], b[prow]
        changed = True
        while changed:
            changed = False
            for i in range(prow + 1, m):
                if not a[i][col]:
                    continue
                p, c = a[prow][col], a[i][col]
                if abs(c) < abs(p):
                    a[prow], a[i] = a[i], a[prow]
                    b[prow], b[i] = b[i], b[prow]
                    p, c = a[prow][col], a[i][col]
                q = c // p
                for j in range(num_vars):
                    a[i][j] -= q * a[prow][j]
                b[i] = b[i] - q * b[prow]
                if a[i][col]:
                    changed = True
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for i in range(prow, m):
        assert not any(a[i])
        if exact:
            if b[i].denominator != 1:
                return None
        elif min(b[i] % 1.0, 1.0 - b[i] % 1.0) > get_tolerance():
            return None
    theta = [Fraction(0) if exact else 0.0] * num_vars
    for (row, col) in reversed(pivots):
        acc = b[row]
        for j in range(col + 1, num_vars):
            if a[row][j]:
                acc = acc - a[row][j] * theta[j]
        theta[col] = (Fraction(acc) / a[row][col]) % 1 if exact \
            else (acc / a[row][col]) % 1.0
    return theta


def reference_sigmas(src, dst):
    """Every source row tries every destination row, identity image first."""
    n, d = src.n, src.d
    src_rows = sorted(src.phases)
    dst_set = set(dst.phases)
    dst_rows = sorted(dst_set)
    maps = [dict() for _ in range(n)]
    used = [set() for _ in range(n)]

    def compatible(row, cand):
        for j in range(n):
            a, b = row[j], cand[j]
            got = maps[j].get(a)
            if got is None:
                if b in used[j]:
                    return False
            elif got != b:
                return False
        return True

    def rec(pos):
        if pos == len(src_rows):
            yield tuple(tuple(maps[j][a] for a in range(d)) for j in range(n))
            return
        row = src_rows[pos]
        first = [row] if row in dst_set else []
        for cand in first + [c for c in dst_rows if c != row]:
            if not compatible(row, cand):
                continue
            touched = [(j, a, b) for j, (a, b) in enumerate(zip(row, cand))
                       if a not in maps[j]]
            for j, a, b in touched:
                maps[j][a] = b
                used[j].add(b)
            yield from rec(pos + 1)
            for j, a, b in touched:
                used[j].discard(b)
                del maps[j][a]

    return list(rec(0))


def monomial_image(s, rng):
    """s under a random local monomial with 1/360-turn diagonals."""
    sites = []
    for _ in range(s.n):
        sigma = list(range(s.d))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(s.d)]))
    return LocalOperator(sites).apply(s)


def diagonal_system(src, dst, sigma):
    """The rows and exact rhs that lm_match solves for one sigma."""
    n, d = src.n, src.d
    rows, rhs = [], []
    for idx, w in sorted(src.phases.items()):
        coeff = [0] * (n * d)
        for j, a in enumerate(idx):
            coeff[j * d + a] += 1
        rows.append(coeff)
        out = tuple(sigma[j][a] for j, a in enumerate(idx))
        rhs.append((dst.phases[out] / w).turn)
    return rows, rhs


CASES = [("ame43", construct_ame43, 18), ("ame44", construct_ame44, None),
         ("ame5-linear-5", lambda: ame_linear_5(5), None),
         ("ame64", lambda: ame64_phi(Fraction(1, 16)), 192)]


@pytest.mark.parametrize("make, count", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_support_search_matches_row_scan(make, count):
    src = make()
    dst = monomial_image(src, random.Random(3))
    got = list(_iter_support_sigmas(src, dst, 10 ** 7))
    assert got == reference_sigmas(src, dst)
    if count is not None:
        assert len(got) == count


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_single_elimination_matches_per_call_loop(make):
    rng = random.Random(11)
    src = make()
    dst = monomial_image(src, rng)
    num_vars = src.n * src.d
    outcomes = set()
    for sigma in _iter_support_sigmas(src, dst, 10 ** 7):
        rows, rhs = diagonal_system(src, dst, sigma)
        noise = [Fraction(rng.randrange(360), 360) for _ in rhs]
        for b in (rhs, noise):
            for exact, values in ((True, b), (False, [float(x) for x in b])):
                want = reference_solve(rows, values, num_vars, exact)
                assert solve_turn_system(rows, values, num_vars, exact) == want
                outcomes.add(want is None)
    # AME(4,3)'s diagonal system has full row rank, so every rhs is solvable
    assert outcomes == ({False} if make is construct_ame43 else {True, False})
