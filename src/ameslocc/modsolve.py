"""Solve linear systems over turns modulo 1.

The diagonal-phase step of the local-monomial match reduces to finding
rational (or real) unknowns theta satisfying A.theta = b (mod 1) where A has
small non-negative integer entries.  Integer row elimination brings A to a
row-echelon form H = U.A with unimodular U; the system is consistent iff the
transformed right-hand side is integral on every zero row, and then a
particular solution follows by back substitution.
"""

from __future__ import annotations

from fractions import Fraction

from .phases import get_tolerance


def _is_integral(x, exact):
    if exact:
        return x.denominator == 1
    return min(float(x) % 1.0, 1.0 - float(x) % 1.0) <= get_tolerance()


def solve_turn_system(rows, rhs, num_vars, exact=True):
    """Find theta with sum_j rows[i][j]*theta[j] = rhs[i] (mod 1), or None.

    ``rows`` are integer coefficient lists, ``rhs`` entries are Fractions
    (exact) or floats.  Returns a list of turn values for the unknowns, with
    unused degrees of freedom set to zero.
    """
    m = len(rows)
    a = [list(map(int, r)) for r in rows]
    if exact:
        b = [Fraction(x) for x in rhs]
    else:
        b = [float(x) for x in rhs]

    pivots = []  # (row, col)
    prow = 0
    for col in range(num_vars):
        # find a nonzero entry in this column at or below prow
        sel = None
        for i in range(prow, m):
            if a[i][col]:
                sel = i
                break
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        b[prow], b[sel] = b[sel], b[prow]
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

    # consistency: zero rows must have integral rhs (a multiple of a full turn)
    for i in range(prow, m):
        if any(a[i]):
            raise AssertionError("elimination left a nonzero row below the pivots")
        if not _is_integral(b[i], exact):
            return None

    theta = [Fraction(0) if exact else 0.0] * num_vars
    for (row, col) in reversed(pivots):
        acc = b[row]
        for j in range(col + 1, num_vars):
            if a[row][j]:
                acc = acc - a[row][j] * theta[j]
        p = a[row][col]
        # theta[col] solves p*x = acc (mod 1); any branch works, take acc/p
        if exact:
            theta[col] = (Fraction(acc) / p) % 1
        else:
            theta[col] = (acc / p) % 1.0
    return theta
