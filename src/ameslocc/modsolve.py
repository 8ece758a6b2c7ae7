"""Solve linear systems over turns modulo 1.

The diagonal-phase step of the local-monomial match reduces to finding
rational (or real) unknowns theta satisfying A.theta = b (mod 1) where A has
small non-negative integer entries.  Integer row elimination brings A to a
row-echelon form H = U.A with unimodular U, built beside H by the same row
operations; the system is consistent iff U.b is integral on every zero row
of H, and then a particular solution follows by back substitution.  A
search solves one A against many b, so its caller keeps ``_eliminate``'s
output (``equivalence`` holds it beside the support's incidence rows); U
is kept as its rows below the pivots and its pivot rows by column.

The rows of U below the pivots span the cokernel of A (c.A = 0), and (U.b)
on the zero rows of H is exactly c.b for those rows c.  So an exact system
is infeasible iff some cokernel row has c.b not a whole number of turns
(Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.4):
one small integer product per row, shortest row first, decides it.  On the
pivot rows U.b is a sum over U's columns at the nonzero entries of b.
Turns go in and out as (q, values), the form of ``phases.turn_numerators``:
integer numerators over an int q, or float turns with q = 1.0.  The back
substitution runs on integer turns: the solution is kept as numerators
over one running denominator, multiplied by |p| only when a pivot p does
not divide the accumulated numerator, and returned over it.  Float turns
take the same path as the binary fractions they hold, over their largest
denominator; only the zero-row test allows the tolerance, and the turns
are rounded to floats once.

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

from .phases import get_tolerance


def _eliminate(rows, num_vars):
    """(h, pivots, coker, cols) of integer coefficient rows: h = U.rows in
    echelon form with (row, col) pivots; the rows of U below the pivots as
    sparse ((index, coeff), ...) tuples, shortest first; and U's pivot rows
    by column, cols[i] the (pivot row, coeff) pairs of U's column i.  U
    starts as the identity and takes each row operation as A does."""
    m = len(rows)
    a = [list(r) for r in rows]
    u = [{i: 1} for i in range(m)]
    pivots = []
    prow = 0
    for col in range(num_vars):
        # find a nonzero entry in this column at or below prow
        sel = next((i for i in range(prow, m) if a[i][col]), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        u[prow], u[sel] = u[sel], u[prow]
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
                    u[prow], u[i] = u[i], u[prow]
                    nz = [j for j in range(col, num_vars) if pivot[j]]
                q = row[col] // pivot[col]
                for j in nz:
                    row[j] -= q * pivot[j]
                ui = u[i]
                for t, v in u[prow].items():
                    x = ui.get(t, 0) - q * v
                    if x:
                        ui[t] = x
                    else:
                        del ui[t]
                if row[col]:
                    changed = True
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    if any(map(any, a[prow:])):
        raise AssertionError("elimination left a nonzero row below the pivots")
    coker = sorted((tuple(sorted(r.items())) for r in u[prow:]), key=len)
    cols = [[] for _ in range(m)]
    for r, ur in enumerate(u[:prow]):
        for t, v in ur.items():
            cols[t].append((r, v))
    return tuple(map(tuple, a)), tuple(pivots), tuple(coker), tuple(map(tuple, cols))


def solve_turn_system(system, rhs, num_vars, q):
    """Find theta with sum_j rows[i][j]*theta[j] = rhs[i] (mod 1), or None.

    ``system`` is ``_eliminate(rows, num_vars)``.  ``rhs`` and the result
    are turns in the (q, values) form of ``phases.turn_numerators``.  With
    an int q the system is exact: ``rhs`` entries are integer numerators
    over q, and the result is (q', values), values integer numerators in
    [0, q') over a multiple q' of q.  With q = 1.0 ``rhs`` entries are
    float turns, read as the binary fractions they hold; a zero row may
    then miss a whole turn by the tolerance, and the result is (1.0, float
    turns in [0, 1)).  Unused degrees of freedom are set to zero.
    """
    h, pivots, coker, cols = system
    exact, b, slack, den = isinstance(q, int), list(rhs), 0, q
    if not exact:  # every float denominator is a power of two: den is their lcm
        ratios = [float(x).as_integer_ratio() for x in b]
        den = max((p for _, p in ratios), default=1)
        b = [x * (den // p) for x, p in ratios]
        slack = get_tolerance() * den
    # zero rows of H must carry a whole number of turns: c.b = 0 (mod den)
    for c in coker:
        r = sum(v * b[i] for i, v in c) % den
        if min(r, den - r) > slack:
            return None
    ub = [0] * len(pivots)  # U.b on the pivot rows, from b's nonzeros
    for x, col in zip(b, cols):
        if x:
            for r, v in col:
                ub[r] += v * x
    # theta[j] = t[j] / den, den growing by |p| when a pivot p does not
    # divide the numerator, so every step stays in integers
    t = [0] * num_vars
    scale = 1  # den / (the denominator of b)
    for (row, col) in reversed(pivots):
        hr = h[row]
        acc = ub[row] * scale
        for j in range(col + 1, num_vars):
            if hr[j]:
                acc -= hr[j] * t[j]
        p = hr[col]
        if acc % p:
            s = abs(p)
            t = [x * s for x in t]
            acc, scale, den = acc * s, scale * s, den * s
        t[col] = acc // p % den
    return (den, t) if exact else (1.0, [x / den % 1.0 for x in t])
