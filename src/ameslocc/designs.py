"""Orthogonal arrays and mutually orthogonal Latin hypercubes.

An orthogonal array OA(r, N, d, k) is an r x N table of symbols in [0, d)
where every k columns contain each of the d^k tuples exactly lambda = r/d^k
times; index unity (lambda = 1) arrays are exactly the supports of k-uniform
states with minimal support.  A k-dimensional Latin hypercube of size d is a
bijection of [d]^k whose every coordinate-slice restriction is again
bijective; for N = 2k the two notions coincide.
"""

from __future__ import annotations

import itertools
from operator import eq
from typing import Dict, List, Optional, Sequence, Tuple

from .phases import ONE
from .states import MinimalSupportState


class DesignError(ValueError):
    pass


class OrthogonalArray:
    def __init__(self, rows: Sequence[Sequence[int]], d: int, strength: int):
        self.rows = sorted(tuple(r) for r in rows)
        self.d = d
        self.strength = strength
        if not self.rows:
            raise DesignError("empty array")
        self.ncols = len(self.rows[0])
        res = check_oa(self.rows, self.d, self.strength)
        if not res["is_oa"]:
            raise DesignError(
                "table is not an OA of strength %d over %d symbols" % (strength, d))
        self.index = res["index"]

    def __eq__(self, other):
        return (isinstance(other, OrthogonalArray)
                and (self.rows, self.d, self.strength) == (other.rows, other.d, other.strength))

    def to_text(self) -> str:
        head = "%d %d %d %d" % (len(self.rows), self.ncols, self.d, self.strength)
        return "\n".join([head] + [" ".join(map(str, r)) for r in self.rows]) + "\n"

    def __repr__(self):
        return "OA(%d,%d,%d,%d)" % (len(self.rows), self.ncols, self.d, self.strength)


def check_oa(rows: Sequence[Sequence[int]], d: int, k: int) -> dict:
    """Verify the strength-k property; report the index lambda when it holds."""
    rows = [tuple(r) for r in rows]
    if not rows:
        raise DesignError("empty table")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise DesignError("ragged rows")
    if any(not (0 <= s < d) for r in rows for s in r):
        raise DesignError("symbol out of range [0, %d)" % d)
    if k == 0:
        return {"is_oa": True, "index": len(rows)}
    if k > ncols:
        return {"is_oa": False, "index": None}
    r = len(rows)
    if r % d ** k:
        return {"is_oa": False, "index": None}
    lam = r // d ** k
    for cols in itertools.combinations(range(ncols), k):
        counts: Dict[Tuple[int, ...], int] = {}
        for row in rows:
            key = tuple(row[c] for c in cols)
            counts[key] = counts.get(key, 0) + 1
        if len(counts) != d ** k or any(v != lam for v in counts.values()):
            return {"is_oa": False, "index": None}
    return {"is_oa": True, "index": lam}


def oa_to_state(oa: OrthogonalArray) -> MinimalSupportState:
    """Index-unity OA rows become the support of a minimal-support state."""
    if oa.index != 1:
        raise DesignError("state correspondence requires index unity, got %d" % oa.index)
    return MinimalSupportState(oa.ncols, oa.d, oa.strength, {r: ONE for r in oa.rows})


def state_to_oa(s: MinimalSupportState) -> OrthogonalArray:
    return OrthogonalArray(sorted(s.phases), s.d, s.k)


class LatinHypercube:
    """A bijection of [d]^k stored as a full table."""

    def __init__(self, k: int, d: int, table: Dict[Tuple[int, ...], Tuple[int, ...]]):
        self.k = k
        self.d = d
        self.table = {tuple(i): tuple(o) for i, o in table.items()}
        if len(self.table) != d ** k:
            raise DesignError("table must be total on [d]^k")

    def __call__(self, idx):
        return self.table[tuple(idx)]

    def __eq__(self, other):
        return (isinstance(other, LatinHypercube)
                and (self.k, self.d, self.table) == (other.k, other.d, other.table))


def check_molh(L: LatinHypercube) -> bool:
    """Latin-hypercube test: the rows input + output form an index-unity OA
    of strength k on 2k columns.

    Fixing k-s input coordinates and reading s output coordinates picks k of
    the 2k columns, so every slice bijection is one column-set condition.
    """
    try:
        return check_oa([i + o for i, o in L.table.items()], L.d, L.k)["is_oa"]
    except DesignError:
        return False


def state_to_molh(s: MinimalSupportState) -> LatinHypercube:
    """Read the last k coordinates of the support as a function of the first k."""
    if s.n != 2 * s.k:
        raise DesignError("hypercube form needs N = 2k, got N=%d k=%d" % (s.n, s.k))
    table = {idx[:s.k]: idx[s.k:] for idx in s.phases}
    return LatinHypercube(s.k, s.d, table)


def molh_to_state(L: LatinHypercube) -> MinimalSupportState:
    phases = {i + o: ONE for i, o in L.table.items()}
    return MinimalSupportState(2 * L.k, L.d, L.k, phases)


def mols3() -> LatinHypercube:
    """The classical MOLS(3): L(i, j) = (i + j, 2i + j) mod 3."""
    return LatinHypercube(2, 3, {(i, j): ((i + j) % 3, (2 * i + j) % 3)
                                 for i in range(3) for j in range(3)})


def molh_existence_bound(k: int, d: int) -> bool:
    """Necessary condition for a k-MOLH(d) to exist (k > 1): k <= d - 1."""
    if k <= 1:
        raise DesignError("bound applies to k > 1")
    return k <= d - 1


def extension_bound(s: int, d: int, k: int) -> bool:
    """Necessary condition for a sub-MOLH(s) inside MOLH(d), in the exact
    integer form k * s^(k-1) <= (d - s)^(k-1)."""
    if k <= 1 or not 0 < s < d:
        raise DesignError("need k > 1 and 0 < s < d")
    return k * s ** (k - 1) <= (d - s) ** (k - 1)


def small_regime(k: int, d: int) -> bool:
    """True when d is small enough that no admissible sub-design can occur.

    A nontrivial sub-MOLH needs size s >= k + 1 and ``extension_bound(s, d, k)``;
    the regime where even s = k + 1 fails is where the finite verification
    of N = 2k equivalences is complete.  For k = 1 the threshold is d < 3.
    """
    if k < 1:
        raise DesignError("k must be positive")
    if k == 1:
        return d < 3
    return d <= k + 1 or not extension_bound(k + 1, d, k)


#: Candidate blocks ``find_sub_molh`` scans before it stops.
_SUB_MOLH_BUDGET = 10 ** 7


def find_sub_molh(L: LatinHypercube, s: int):
    """All axis-aligned size-s blocks S1 x ... x Sk mapped by L onto a block.

    Returns (matches, complete) where each match is (input block, output
    block); the scan is exhaustive unless the candidate count exceeds
    ``_SUB_MOLH_BUDGET``, in which case ``complete`` is False.
    """
    from math import comb

    if not 1 <= s <= L.d:
        raise DesignError("need 1 <= s <= d")
    candidates = comb(L.d, s) ** L.k
    complete = candidates <= _SUB_MOLH_BUDGET
    matches = []
    scanned = 0
    for blocks in itertools.product(itertools.combinations(range(L.d), s), repeat=L.k):
        scanned += 1
        if scanned > _SUB_MOLH_BUDGET:
            break
        images = [L(idx) for idx in itertools.product(*blocks)]
        out_axes = [sorted({im[a] for im in images}) for a in range(L.k)]
        if any(len(ax) != s for ax in out_axes):
            continue
        # the s^k distinct images sit inside the product of axes of size s^k,
        # so equal axis sizes already force image == product block
        matches.append((blocks, tuple(tuple(ax) for ax in out_axes)))
    return matches, complete


def tensor_molh(a: LatinHypercube, b: LatinHypercube) -> LatinHypercube:
    """Compose two hypercubes on the paired alphabet (x, y) -> d_b*x + y."""
    if a.k != b.k:
        raise DesignError("dimension mismatch: %d vs %d" % (a.k, b.k))
    k, d = a.k, a.d * b.d
    table = {}
    for ia, oa in a.table.items():
        for ib, ob in b.table.items():
            key = tuple(b.d * x + y for x, y in zip(ia, ib))
            val = tuple(b.d * x + y for x, y in zip(oa, ob))
            table[key] = val
    return LatinHypercube(k, d, table)


def no_molh_exists(k: int, d: int, node_budget: int = 10 ** 8) -> Optional[bool]:
    """Exhaustive backtracking proof that no k-MOLH(d) exists.

    Returns True when the complete search space is exhausted without finding
    a hypercube, False when one is found, None when the budget runs out.
    Feasible only for very small parameters (e.g. 3-MOLH(3)).
    """
    cells = list(itertools.product(range(d), repeat=k))
    placed: List[Tuple[int, ...]] = []
    used = set()
    nodes = 0

    def rec(pos: int) -> Optional[bool]:
        nonlocal nodes
        if pos == len(cells):
            return False  # a full hypercube exists
        for out in cells:
            if out in used:
                continue
            nodes += 1
            if nodes > node_budget:
                return None
            # index unity: two rows agree on at most k-1 of the 2k columns
            row = cells[pos] + out
            if all(sum(map(eq, row, other)) < k for other in placed):
                used.add(out)
                placed.append(row)
                sub = rec(pos + 1)
                placed.pop()
                used.discard(out)
                if sub is not True:
                    return sub
        return True

    return rec(0)


def parse_oa_text(text: str) -> OrthogonalArray:
    """Parse the 'r N d k' header + rows format used by published OA tables."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DesignError("empty OA file")
    head = lines[0].split()
    if len(head) != 4:
        raise DesignError("header must be 'r N d k', got %r" % lines[0])
    try:
        r, n, d, k = map(int, head)
    except ValueError:
        raise DesignError("non-integer header fields in %r" % lines[0])
    rows = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != n:
            raise DesignError("row %r has %d entries, expected %d" % (ln, len(row), n))
        if any(not (0 <= s < d) for s in row):
            raise DesignError("symbol out of range in row %r" % ln)
        rows.append(row)
    if len(rows) != r:
        raise DesignError("expected %d rows, found %d" % (r, len(rows)))
    return OrthogonalArray(rows, d, k)
