"""Solve linear systems over turns modulo 1.

The diagonal-phase step of the local-monomial match reduces to finding
rational (or real) unknowns theta satisfying A.theta = b (mod 1) where A has
small non-negative integer entries.  Integer row elimination brings A to a
row-echelon form H = U.A with unimodular U; the system is consistent iff the
transformed right-hand side is integral on every zero row, and then a
particular solution follows by back substitution.  A search solves one A
against many b, so each distinct A is eliminated once; pivots and swaps read
only A, so replaying U on b does the arithmetic of eliminating [A | b].

The rows of U below the pivots span the cokernel of A (c.A = 0), and (U.b)
on the zero rows of H is exactly c.b for those rows c.  So an exact system
is infeasible iff some cokernel row has c.b not a whole number of turns
(Cohen, A Course in Computational Algebraic Number Theory, 1993):
one small integer product per row decides it, and only feasible systems
replay U for the back substitution.  That substitution runs on integer
turns too: the solution is kept as numerators over one running
denominator, multiplied by |p| only when a pivot p does not divide the
accumulated numerator, and becomes Fractions once, at the end.

A support search solves one A against b = pull_sigma(dst) - src for many
sigma, each after the first, sigma0, being sigma0 o g for a support
automorphism g, which permutes the cokernel.  Every cokernel row sums to 0
(the all-ones vector is A times one site's indicator), so with src shifted
by its most common turn only the rows Z still carrying a turn enter: c.b = 0
iff sum over i in Z of c[g(i)] * (src_i - m) = c.pull_sigma0(dst).
``equivalence`` tests each later sigma so, on the rows ``_eliminate`` keeps,
memoised by g(Z), and solves only the sigmas that pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .phases import get_tolerance


class Rows(tuple):
    """Integer coefficient rows as a tuple of int tuples that hashes once,
    so a matrix solved against many right-hand sides costs one hash."""

    def __new__(cls, rows):
        self = super().__new__(cls, (tuple(map(int, r)) for r in rows))
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=32)
def _eliminate(rows, num_vars):
    """(ops, h, pivots, coker): h = U.rows in echelon form with (row, col)
    pivots; U as row operations in order, (i, j, None) swapping rows i and j
    and (i, j, q) subtracting q times row j from row i; and the rows of U
    below the pivots as sparse ((index, coeff), ...) tuples."""
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
        # reduce all other rows against the pivot by gcd-style elimination,
        # over the pivot row's nonzero columns (none lies before col)
        pivot = a[prow]
        nz = [j for j in range(col, num_vars) if pivot[j]]
        changed = True
        while changed:
            changed = False
            for i in range(prow + 1, m):
                row = a[i]
                if not row[col]:
                    continue
                if abs(row[col]) < abs(pivot[col]):
                    pivot, row = row, pivot
                    a[prow], a[i] = pivot, row
                    ops.append((prow, i, None))
                    nz = [j for j in range(col, num_vars) if pivot[j]]
                q = row[col] // pivot[col]
                for j in nz:
                    row[j] -= q * pivot[j]
                ops.append((i, prow, q))
                if row[col]:
                    changed = True
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    if any(map(any, a[prow:])):
        raise AssertionError("elimination left a nonzero row below the pivots")
    u = [{i: 1} for i in range(m)]
    for i, j, q in ops:
        if q is None:
            u[i], u[j] = u[j], u[i]
            continue
        ui = u[i]
        for t, v in u[j].items():
            x = ui.get(t, 0) - q * v
            if x:
                ui[t] = x
            else:
                del ui[t]
    coker = tuple(tuple(sorted(r.items())) for r in u[prow:])
    return tuple(ops), tuple(map(tuple, a)), tuple(pivots), coker


def solve_turn_system(rows, rhs, num_vars, den=None):
    """Find theta with sum_j rows[i][j]*theta[j] = rhs[i] (mod 1), or None.

    ``rows`` are integer coefficient sequences (pass ``Rows`` to skip the
    conversion).  With ``den`` the system is exact: ``rhs`` entries are
    integer numerators over den, and the turns come back as Fractions.
    Without it ``rhs`` entries are float turns, solved within the tolerance.
    Returns a list of turn values for the unknowns, with unused degrees of
    freedom set to zero.
    """
    if not isinstance(rows, Rows):
        rows = Rows(rows)
    ops, h, pivots, coker = _eliminate(rows, num_vars)
    if den is None:
        b = [float(x) for x in rhs]
    else:  # U applied in integers over den
        b = list(rhs)
        # zero rows of H must carry a whole number of turns: c.b = 0 (mod den)
        for c in coker:
            if sum(v * b[i] for i, v in c) % den:
                return None
    for i, j, q in ops:
        if q is None:
            b[i], b[j] = b[j], b[i]
        else:
            b[i] = b[i] - q * b[j]
    if den is None:  # zero rows must carry a whole turn, within tolerance
        if any(min(x % 1.0, 1.0 - x % 1.0) > get_tolerance() for x in b[len(pivots):]):
            return None
        # theta[col] solves p*x = acc (mod 1); any branch works, take acc/p
        theta = [0.0] * num_vars
        for (row, col) in reversed(pivots):
            acc = b[row]
            for j in range(col + 1, num_vars):
                if h[row][j]:
                    acc = acc - h[row][j] * theta[j]
            theta[col] = (acc / h[row][col]) % 1.0
        return theta
    # theta[j] = t[j] / den, den growing by |p| when a pivot p does not
    # divide the numerator, so every step stays in integers
    t = [0] * num_vars
    scale = 1  # den / (the denominator of b)
    for (row, col) in reversed(pivots):
        hr = h[row]
        acc = b[row] * scale
        for j in range(col + 1, num_vars):
            if hr[j]:
                acc -= hr[j] * t[j]
        p = hr[col]
        if acc % p:
            s = abs(p)
            t = [x * s for x in t]
            acc, scale, den = acc * s, scale * s, den * s
        t[col] = acc // p % den
    return [Fraction(x, den) for x in t]

