"""Solve linear systems over turns modulo 1.

The diagonal-phase step of the local-monomial match reduces to finding
rational (or real) unknowns theta satisfying A.theta = b (mod 1) where A has
small non-negative integer entries.  Integer row elimination brings A to a
row-echelon form H = U.A with unimodular U; the system is consistent iff the
transformed right-hand side is integral on every zero row, and then a
particular solution follows by back substitution.  A search solves one A
against many b, so each distinct A is eliminated once; pivots and swaps read
only A, so replaying U on b does the arithmetic of eliminating [A | b].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .phases import get_tolerance


@lru_cache(maxsize=32)
def _eliminate(rows, num_vars):
    """(ops, h, pivots): h = U.rows in echelon form with (row, col) pivots,
    and U as row operations in order, (i, j, None) swapping rows i and j and
    (i, j, q) subtracting q times row j from row i."""
    m = len(rows)
    a = [list(r) for r in rows]
    ops = []
    pivots = []
    prow = 0
    for col in range(num_vars):
        # find a nonzero entry in this column at or below prow
        sel = next((i for i in range(prow, m) if a[i][col]), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        ops.append((prow, sel, None))
        # reduce all other rows against the pivot by gcd-style elimination
        changed = True
        while changed:
            changed = False
            for i in range(prow + 1, m):
                if not a[i][col]:
                    continue
                p, c = a[prow][col], a[i][col]
                if abs(c) < abs(p):
                    a[prow], a[i] = a[i], a[prow]
                    ops.append((prow, i, None))
                    p, c = a[prow][col], a[i][col]
                q = c // p
                for j in range(num_vars):
                    a[i][j] -= q * a[prow][j]
                ops.append((i, prow, q))
                if a[i][col]:
                    changed = True
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    if any(map(any, a[prow:])):
        raise AssertionError("elimination left a nonzero row below the pivots")
    return tuple(ops), tuple(map(tuple, a)), tuple(pivots)


def solve_turn_system(rows, rhs, num_vars, exact=True):
    """Find theta with sum_j rows[i][j]*theta[j] = rhs[i] (mod 1), or None.

    ``rows`` are integer coefficient lists, ``rhs`` entries are Fractions
    (exact) or floats.  Returns a list of turn values for the unknowns, with
    unused degrees of freedom set to zero.
    """
    ops, h, pivots = _eliminate(tuple(tuple(map(int, r)) for r in rows), num_vars)
    if exact:  # U applied in integers over the common denominator
        b = [Fraction(x) for x in rhs]
        den = math.lcm(*(x.denominator for x in b))
        b = [x.numerator * (den // x.denominator) for x in b]
    else:
        b = [float(x) for x in rhs]
    for i, j, q in ops:
        if q is None:
            b[i], b[j] = b[j], b[i]
        else:
            b[i] = b[i] - q * b[j]

    # consistency: zero rows must have integral rhs (a multiple of a full turn)
    for x in b[len(pivots):]:
        if (x % den if exact else min(x % 1.0, 1.0 - x % 1.0) > get_tolerance()):
            return None

    theta = [Fraction(0) if exact else 0.0] * num_vars
    for (row, col) in reversed(pivots):
        acc = Fraction(b[row], den) if exact else b[row]
        for j in range(col + 1, num_vars):
            if h[row][j]:
                acc = acc - h[row][j] * theta[j]
        # theta[col] solves p*x = acc (mod 1); any branch works, take acc/p
        theta[col] = (acc / h[row][col]) % (1 if exact else 1.0)
    return theta
