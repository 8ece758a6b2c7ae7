"""The integer elimination of ``modsolve`` against pinned outputs.

``_eliminate`` records the row operations, echelon rows, pivots and
cokernel rows that every exact solve and the support search's cokernel
test read.  A faster elimination must give exactly the same output; the
digests below pin it on two incidence matrices the engine solves against.
"""

import hashlib

import pytest

from ameslocc.equivalence import _incidence
from ameslocc.modsolve import _eliminate
from ameslocc.states import ame_linear_5, construct_ame64


@pytest.mark.parametrize("make, digest", [
    (construct_ame64, "5ff91c9ba2e69b40"),
    (lambda: ame_linear_5(7), "3f48079a196a84fd"),
], ids=["ame64", "linear5-d7"])
def test_elimination_output_is_pinned(make, digest):
    s = make()
    rows = _incidence(frozenset(s.phases), s.n, s.d)[2]
    out = _eliminate(rows, s.n * s.d)
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == digest
