"""The integer elimination of ``modsolve`` against pinned outputs.

``_eliminate`` returns the echelon rows, pivots and cokernel rows that
every exact solve and the support search's cokernel test read, and U's
pivot rows by column, which carry the right-hand side into the back
substitution.  A faster elimination must give exactly the same output;
the digests below pin it on two incidence matrices the engine solves
against, and U's pivot rows must take the matrix to the echelon rows.
"""

import hashlib

import pytest

from ameslocc.equivalence import _incidence
from ameslocc.modsolve import _eliminate
from ameslocc.states import ame_linear_5, construct_ame64


@pytest.mark.parametrize("make, digest", [
    (construct_ame64, "281ecefe8629c97c"),
    (lambda: ame_linear_5(7), "0e8e5f877e7b3fd9"),
], ids=["ame64", "linear5-d7"])
def test_elimination_output_is_pinned(make, digest):
    s = make()
    num_vars = s.n * s.d
    rows = _incidence(frozenset(s.phases), s.n, s.d).rows
    h, pivots, coker, cols = _eliminate(rows, num_vars)
    assert hashlib.sha256(repr((h, pivots, coker)).encode()).hexdigest()[:16] == digest
    u = [[0] * len(rows) for _ in pivots]
    for i, col in enumerate(cols):
        for r, v in col:
            u[r][i] = v
    for r, _ in pivots:
        assert [sum(x * row[j] for x, row in zip(u[r], rows))
                for j in range(num_vars)] == list(h[r])
