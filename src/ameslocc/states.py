"""k-uniform and AME state construction and analysis.

States live on n qudits of local dimension d.  Two representations are used:

* ``MinimalSupportState`` -- a set of multi-indices (the support) with one
  unit-modulus phase per index and an implicit overall 1/sqrt(#terms).
* ``SparseState`` -- arbitrary complex amplitudes per index with an implicit
  1/sqrt(scale2) normalization, exact whenever the amplitudes are.

All constructions from the literature of index-unity orthogonal arrays end up
minimal support: exactly d^k terms whose projection onto any k positions is a
bijection onto [d]^k.

Linear supports are over GF(q), q = p^m any prime power: sum_i a_i x^i is
labelled sum_i a_i p^i, its coefficients read as a base-p integer, and the
modulus is the first monic irreducible of degree m in the order of that
reading.  So x^2 = x + 1 at q = 4, x^3 = x + 1 at q = 8, and mod p at prime q.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .phases import (ONE, Amp, Phase, count_vector, get_tolerance, numerator_phase,
                     root_of_unity, turn_difference, turn_numerators, vanishes)

MultiIndex = Tuple[int, ...]


class StateError(ValueError):
    pass


def _check_index(idx, n, d):
    if len(idx) != n or any(not (0 <= s < d) for s in idx):
        raise StateError("bad multi-index %r for n=%d d=%d" % (idx, n, d))


class MinimalSupportState:
    """Superposition of d^k basis states with unit-modulus phases.

    The support, projected onto any k positions, hits every tuple in [d]^k
    exactly once (equivalently: the support is an orthogonal array of index
    unity and strength k).
    """

    def __init__(self, n: int, d: int, k: int, phases: Dict[MultiIndex, Phase],
                 check: bool = True):
        self.n = n
        self.d = d
        self.k = k
        self.phases = {tuple(i): p for i, p in phases.items()}
        if check:
            self.validate()

    def validate(self):
        """Check the support size, every index, and index unity (``_check_support``)."""
        _check_support(frozenset(self.phases), self.n, self.d, self.k)

    def as_minimal(self) -> Optional["MinimalSupportState"]:
        """This state with k read from its term count (itself when its k is
        that one), or None when the count is no power of d or the support
        fails ``_check_support``."""
        try:
            k = _infer_k(self.d, len(self.phases))
            _check_support(frozenset(self.phases), self.n, self.d, k)
        except StateError:
            return None
        return self if k == self.k else MinimalSupportState(
            self.n, self.d, k, self.phases, check=False)

    @property
    def support(self):
        return set(self.phases)

    @property
    def is_exact(self):
        return all(p.den is not None for p in self.phases.values())

    def to_sparse(self) -> "SparseState":
        terms = {i: Amp.from_phase(p) for i, p in self.phases.items()}
        return SparseState(self.n, self.d, terms, scale2=len(terms))

    def to_json(self):
        return {
            "n": self.n, "d": self.d,
            "terms": [{"idx": list(i), "phase": self.phases[i].to_json()}
                      for i in sorted(self.phases)],
        }

    @staticmethod
    def from_json(obj) -> "MinimalSupportState":
        n, d = obj["n"], obj["d"]
        phases = {tuple(t["idx"]): Phase.from_json(t["phase"]) for t in obj["terms"]}
        return MinimalSupportState(n, d, _infer_k(d, len(phases)), phases)

    def __repr__(self):
        return f"MinimalSupportState(n={self.n}, d={self.d}, k={self.k}, {len(self.phases)} terms)"


def _infer_k(d, count):
    """The k with d^k = count; StateError when there is none or d < 2."""
    k = round(math.log(count, d)) if d >= 2 and count >= 1 else None
    if k is None or d ** k != count:
        raise StateError("support size %d is not a power of d=%r, or d < 2" % (count, d))
    return k


@lru_cache(maxsize=32)
def _check_support(rows, n, d, k):
    """Check rows (a frozenset) as an (n, d, k) support: its size, every
    index (``_check_rows``), and index unity.  Only passing supports are
    cached.  Each k-subset of sites is index-unity when its columns, zipped,
    give d^k distinct tuples; a failure names the first failing k-subset in
    combination order.
    """
    size = d ** k
    if len(rows) != size:
        raise StateError("support size %d != d^k = %d" % (len(rows), size))
    cols = _check_rows(rows, n, d)
    for sites in itertools.combinations(range(n), k):
        # k = 0 zips no columns; its one-row support is trivially unity
        if k and len(set(zip(*(cols[c] for c in sites)))) != size:
            raise StateError("support is not index-unity on columns %r" % (sites,))


def _check_rows(rows, n, d):
    """The per-site columns of rows (an iterable of tuples), after
    checking that every row has n symbols in [0, d).  A bad index is looked
    up row by row only once the columns show one, so the error names the
    first bad index in sorted order."""
    cols = _columns(rows, n)
    if (len(cols) != n or len(set(map(len, rows))) != 1
            or not set().union(*cols).issubset(range(d))):
        for idx in sorted(rows):
            _check_index(idx, n, d)
    return cols


class SparseState:
    """Sparse state with Amp-valued terms and implicit 1/sqrt(scale2) factor."""

    def __init__(self, n: int, d: int, terms: Dict[MultiIndex, Amp], scale2):
        self.n = n
        self.d = d
        self.terms = {tuple(i): a for i, a in terms.items() if not a.is_zero()}
        self.scale2 = scale2  # squared norm the raw amplitudes are meant to have
        _check_rows(self.terms, self.n, self.d)

    @property
    def is_exact(self):
        return all(a.is_exact for a in self.terms.values())

    @cached_property
    def _support(self):
        """The ``_Support`` of this state's rows in term order, looked up
        once per state."""
        return _support_of(tuple(self.terms), self.n, self.d)

    @cached_property
    def _integer_reading(self):
        """The exact terms over integers, read once per state:
        (q, den, pairs, norms, norm).

        Term r is the r-th entry of ``terms``.  ``pairs[r]`` lists (e, c)
        with the amplitude of term r equal to sum(c * w_q^e) / den: each
        amplitude's (q, counts, den) lifted to q and den, the lcm of their
        q and of their den.  The forms are not reduced first: a zero test
        reduces each count vector to its own conductor (``phases.vanishes``).
        ``norms[r]`` is den^2 times its squared modulus as a count vector
        (``count_vector``), and ``norm`` the one such vector when every
        term has it, else None.  Every partial trace of this state reuses
        the reading.  None when a term has a real turn.
        """
        if not self.is_exact:
            return None
        amps = self.terms.values()
        q = math.lcm(*{a.q for a in amps})
        den = math.lcm(*{a.den for a in amps})
        pairs = [list(a.counts.items()) if a.q == q and a.den == den else
                 [(e * (q // a.q), c * (den // a.den)) for e, c in a.counts.items()]
                 for a in amps]
        # |c w^e|^2 = c^2 needs no products
        norms = [((0, p[0][1] ** 2),) if len(p) == 1
                 else count_vector(_add_products({}, p, p, q)) for p in pairs]
        distinct = set(norms)
        norm = distinct.pop() if len(distinct) == 1 else None
        return q, den, pairs, norms, norm

    def to_sparse(self):
        return self

    def as_minimal(self, k=None) -> Optional[MinimalSupportState]:
        """Reinterpret as a MinimalSupportState when all amplitudes share one
        modulus and the support has the index-unity property; None otherwise."""
        try:
            k = _infer_k(self.d, len(self.terms)) if k is None else k
        except StateError:
            return None
        phases, ref = {}, None
        for idx, a in self.terms.items():
            split = a.polar()  # all |a| must agree
            if split is None:
                return None
            m, phases[idx] = split
            if ref is None:
                ref = m
            elif _moduli_differ(m, ref):
                return None
        try:
            return MinimalSupportState(self.n, self.d, k, phases)
        except StateError:
            return None

    def to_json(self):
        """Terms as their phase when ``Amp.polar`` gives modulus 1, else as
        ``Amp.to_json``."""
        out = []
        for i in sorted(self.terms):
            a = self.terms[i]
            split = a.polar()
            unit = split is not None and not _moduli_differ(split[0], 1)
            out.append({"idx": list(i), **({"phase": split[1].to_json()} if unit else a.to_json())})
        return {"n": self.n, "d": self.d, "scale2": str(self.scale2), "terms": out}

    @staticmethod
    def from_json(obj) -> "SparseState":
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["idx"])] = (Amp.from_phase(Phase.from_json(t["phase"]))
                                      if "phase" in t else Amp.from_json(t))
        # unit-modulus terms with equal weights: squared norm is the count
        scale2 = Fraction(obj["scale2"]) if "scale2" in obj else len(terms)
        if scale2 <= 0:
            raise StateError("scale2 must be positive, got %s" % scale2)
        return SparseState(obj["n"], obj["d"], terms, scale2=scale2)

    def __repr__(self):
        return f"SparseState(n={self.n}, d={self.d}, {len(self.terms)} terms)"


def _columns(rows, n):
    """The symbols of every row on site p, for each site p < n."""
    return tuple(zip(*rows)) if rows else ((),) * n


def _add_products(counts, pi, pj, q):
    """Add a_i * conj(a_j) into counts (exponent of w_q -> integer count),
    for amplitudes given as integer pairs (``SparseState._integer_reading``)."""
    for ei, ai in pi:
        for ej, aj in pj:
            e = (ei - ej) % q
            counts[e] = counts.get(e, 0) + ai * aj
    return counts


def _moduli_differ(x, y):
    """x != y when both are Fractions, else |x - y| > tolerance * max(1, y)."""
    gap = abs(x - y)
    return gap != 0 if isinstance(gap, Fraction) else gap > get_tolerance() * max(1.0, y)


# ---------------------------------------------------------------------------
# constructors

def construct_ghz(n: int, d: int) -> MinimalSupportState:
    """The n-party generalized GHZ state (|0...0> + ... + |d-1...d-1>)/sqrt(d)."""
    if n < 2 or d < 2:
        raise StateError("GHZ needs n >= 2 and d >= 2")
    phases = {(i,) * n: ONE for i in range(d)}
    return MinimalSupportState(n, d, 1, phases)


def _prime_power(q):
    """(p, m) with q = p^m for a prime p, or None."""
    if not isinstance(q, int) or q < 2:
        return None
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    m = round(math.log(q, p))
    return (p, m) if p ** m == q else None


def _is_prime(d):
    return _prime_power(d) == (d, 1)


@lru_cache(maxsize=8)
def _field_tables(q):
    """(add, mul): GF(q)'s tables on labels (see the module docstring).  A
    reducible monic f of degree m is g * h for monic g and h of degrees i and
    m - i, 1 <= i <= m // 2, so the modulus is the first f no such product hits."""
    p, m = _prime_power(q)
    vec = [[a // p ** i % p for i in range(m)] for a in range(q)]
    label = {tuple(u): a for a, u in enumerate(vec)}

    def times(u, v, c):  # u * v mod x^m + c(x), by Horner on v
        acc = [0] * m
        for b in reversed(v):
            acc = [(s - acc[-1] * ci + b * a) % p for s, ci, a in zip([0] + acc[:-1], c, u)]
        return label[tuple(acc)]

    reducible = {times(vec[g + p ** i], vec[h + p ** (m - i)], [0] * m)
                 for i in range(1, m // 2 + 1)
                 for g in range(p ** i) for h in range(p ** (m - i))}
    c = vec[next(c for c in range(q) if c not in reducible)]
    add = [[label[tuple((a + b) % p for a, b in zip(u, v))] for v in vec] for u in vec]
    return add, [[times(u, v, c) for v in vec] for u in vec]


def construct_linear(d: int, coeffs: Sequence[Sequence[int]]) -> MinimalSupportState:
    """State over GF(d) whose site p carries sum_m coeffs[p][m] * x_m.

    ``coeffs`` has one row per site and one label in range(d) per free index;
    d is a prime power, labelled as the module docstring says.  Rows follow x
    in ``itertools.product`` order, and index unity (every k rows independent
    over GF(d)) is verified, not assumed.
    """
    if not coeffs:
        raise StateError("construct_linear needs one coefficient row per site, got none")
    k = len(coeffs[0])
    if _prime_power(d) is None or any(len(row) != k or not all(0 <= c < d for c in row)
                                      for row in coeffs):
        raise StateError("construct_linear needs a prime power d and %d labels in "
                         "range(d) per row, got d=%r" % (k, d))
    add, mul = _field_tables(d)
    cols = []
    for row in coeffs:
        col = [0]
        for c in row:  # the form on x_0 .. x_j, in product order
            col = [add[s][t] for s in col for t in mul[c]]
        cols.append(col)
    return MinimalSupportState(len(coeffs), d, k, dict.fromkeys(zip(*cols), ONE))


def construct_ame43() -> MinimalSupportState:
    """AME(4,3): sum over i,j of |i, j, i+j, 2i+j> (mod 3)."""
    return construct_linear(3, [[1, 0], [0, 1], [1, 1], [2, 1]])


def ame_linear_5(d: int) -> MinimalSupportState:
    """The |i,j,i+j,2i+j,3i+j> family; an AME(5,d) state for prime d >= 5."""
    if not _is_prime(d):  # 2i + j and 3i + j are integers mod d, not GF(d) labels
        raise StateError("ame_linear_5 requires prime d, got %r" % (d,))
    return construct_linear(d, [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]])


def construct_ame44() -> MinimalSupportState:
    """AME(4,4): sum over i,j in GF(4) of |i, j, i+j, i+2j>."""
    return construct_linear(4, [[1, 0], [0, 1], [1, 1], [1, 2]])


def construct_ame64() -> MinimalSupportState:
    """AME(6,4) from the [6,3,4] MDS code over GF(4): x, y, z, x+y+z, x+2y+3z, x+3y+2z."""
    return construct_linear(4, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                [1, 1, 1], [1, 2, 3], [1, 3, 2]])


def construct_ame5_phased(d: int) -> SparseState:
    """The d^3-term AME(5,d) state sum_{i,j,k} w^{(3i+j)k} |i,j,i+j,2i+j+k,k>."""
    if d < 2:
        raise StateError("need d >= 2")
    roots = [Amp.from_phase(root_of_unity(d, e)) for e in range(d)]
    terms = {(i, j, (i + j) % d, (2 * i + j + k) % d, k): roots[(3 * i + j) * k % d]
             for i, j, k in itertools.product(range(d), repeat=3)}
    return SparseState(5, d, terms, scale2=d ** 3)


def with_phases(s: MinimalSupportState, assignment: Dict[MultiIndex, Phase]) -> MinimalSupportState:
    """Copy of s with the phases of the given support indices replaced."""
    phases = dict(s.phases)
    for idx, p in assignment.items():
        idx = tuple(idx)
        if idx not in phases:
            raise StateError("index %r not in support" % (idx,))
        phases[idx] = p
    return MinimalSupportState(s.n, s.d, s.k, phases, check=False)


def ame64_phi(phi_turn) -> MinimalSupportState:
    """AME(6,4) family member: base state with the all-zero term's phase set
    to the given turn.  Rational turns stay exact; floats mark a real turn."""
    base = construct_ame64()
    return with_phases(base, {(0,) * 6: Phase(phi_turn)})


def tensor_compose(a, b):
    """Site-wise composition on the paired alphabet (x, y) -> d_b*x + y.

    Both states must have the same party count; k-uniformity of degree
    min(k_a, k_b) is inherited.
    """
    sa, sb = a.to_sparse(), b.to_sparse()
    if sa.n != sb.n:
        raise StateError("party counts differ: %d vs %d" % (sa.n, sb.n))
    n, d = sa.n, sa.d * sb.d
    terms = {}
    for ia, ca in sa.terms.items():
        for ib, cb in sb.terms.items():
            idx = tuple(sb.d * x + y for x, y in zip(ia, ib))
            terms[idx] = ca * cb
    out = SparseState(n, d, terms, scale2=sa.scale2 * sb.scale2)
    if isinstance(a, MinimalSupportState) and isinstance(b, MinimalSupportState):
        m = out.as_minimal(k=min(a.k, b.k))
        if m is not None:
            return m
    return out


# ---------------------------------------------------------------------------
# analysis

class DensityMatrix:
    """Reduced density matrix with Amp entries, normalized to trace 1.

    ``entries`` holds the nonzero entries only, keyed by (row, column) pairs
    of kept-site symbol tuples.  For an exact state each entry is built from
    its integer count vector over the exponents of w_q, so entries with one
    count vector are one shared Amp.
    """

    def __init__(self, d: int, keep: Tuple[int, ...],
                 entries: Dict[Tuple[MultiIndex, MultiIndex], Amp]):
        self.d = d
        self.keep = keep
        self.entries = entries
        self.dim = d ** len(keep)

    def _unrank(self, r: int) -> MultiIndex:
        out = []
        for _ in self.keep:
            r, s = divmod(r, self.d)
            out.append(s)
        return tuple(reversed(out))

    def entry(self, i, j) -> Amp:
        """The entry at row i and column j, ranked base d over the kept sites."""
        return self.entries.get((self._unrank(i), self._unrank(j)), Amp.zero())

    def is_maximally_mixed(self) -> bool:
        """Exactly ``dim`` entries, all diagonal and equal to 1/dim.  Each
        distinct entry object is compared once: entries with one count
        vector share one Amp."""
        if len(self.entries) != self.dim or any(
                row != col for row, col in self.entries):
            return False
        want = Amp.from_counts(1, {0: 1}, self.dim)
        distinct = {id(a): a for a in self.entries.values()}
        return all(a.equals(want) for a in distinct.values())

    def trace(self) -> Amp:
        t = Amp.zero()
        for (row, col), a in self.entries.items():
            if row == col:
                t = t + a
        return t


class _Support:
    """The per-site columns of one row tuple, in term order, and d, with
    the ``_TracePlan`` of each kept site set built on them so far."""

    __slots__ = ("cols", "d", "plans")

    def __init__(self, cols, d):
        self.cols, self.d, self.plans = cols, d, {}

    def plan(self, keep):
        """The ``_TracePlan`` of a sorted keep tuple, built on first use."""
        plan = self.plans.get(keep)
        if plan is None:
            plan = self.plans[keep] = _trace_plan(self.cols, self.d, keep)
        return plan


@lru_cache(maxsize=32)
def _support_of(rows, n, d):
    """The ``_Support`` of rows, a tuple in term order, and so the one cache
    of trace plans: each state whose terms list these rows in this order
    gets this one object.  A state hashes its rows here once
    (``SparseState._support``), not once per plan."""
    return _Support(_columns(rows, n), d)


class _TracePlan(NamedTuple):
    """The part of a partial trace onto one kept site set that depends on
    the support alone."""

    kept: list    # each row's symbols on the kept sites
    counts: dict  # kept tuple -> the number of rows with it
    even: bool    # counts hits all d^k kept tuples, each equally often
    groups: list  # the rows of each traced-out tuple that two or more
                  # rows share, in kept-tuple order


def _trace_plan(cols, d, keep):
    """The ``_TracePlan`` of a support's columns and a sorted keep tuple.

    Rows are grouped by a zip over the traced-out columns, and only pairs
    inside a group of two or more rows reach an off-diagonal entry.  Two
    rows of one group differ on the kept sites, so a group in kept-tuple
    order gives each pair (``itertools.combinations``) with its smaller
    kept tuple first; the mirrored entry is its conjugate.  A plan holds
    row numbers, not their pairs, so its size is linear in the rows.
    """
    kept = list(zip(*(cols[p] for p in keep)))
    counts = Counter(kept)
    even = len(counts) == d ** len(keep) and len(set(counts.values())) == 1
    keys = list(zip(*(cols[p] for p in range(len(cols)) if p not in keep)))
    groups = [sorted(members, key=kept.__getitem__)
              for members in _groups(keys) if len(members) > 1]
    return _TracePlan(kept, counts, even, groups)


def _groups(keys):
    """Lists of the row numbers that share one key, for each key."""
    groups = {}
    for r, key in enumerate(keys):
        groups.setdefault(key, []).append(r)
    return groups.values()


def _exact_diagonal(plan, reading):
    """Each kept tuple's diagonal entry, as an unscaled count vector."""
    norms, norm = reading[3], reading[4]
    if norm is not None:  # the row counts times the one squared modulus
        return {k: tuple((e, c * m) for e, c in norm) for k, m in plan.counts.items()}
    sums = {}
    for k, vec in zip(plan.kept, norms):
        acc = sums.setdefault(k, {})
        for e, c in vec:
            acc[e] = acc.get(e, 0) + c
    return {k: count_vector(acc) for k, acc in sums.items()}


def _exact_offdiagonal(plan, reading):
    """((ki, kj), unscaled count vector) for each entry that the pairs of
    the plan's groups reach."""
    q, pairs, kept = reading[0], reading[2], plan.kept
    sums = {}
    for members in plan.groups:
        for i, j in itertools.combinations(members, 2):
            _add_products(sums.setdefault((kept[i], kept[j]), {}), pairs[i], pairs[j], q)
    return ((entry, count_vector(counts)) for entry, counts in sums.items())


def reduced_density(s, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace onto the given positions, normalized to trace 1.

    keep must hold distinct sites of range(N), a nonempty strict subset of
    them.  What depends on the support alone (each row's kept tuple, the
    row count per kept tuple, and the rows of each traced-out group whose
    pairs sum into the off-diagonal entries) is a ``_TracePlan``, cached
    per row tuple in term order, so fresh states on one support share it.  An exact state is
    summed on its integer reading (``SparseState._integer_reading``, made
    once per state), so each entry is an integer count vector over the
    exponents (e_i - e_j) mod q:

    * a diagonal entry sums squared moduli, with no phase products, and is
      never zero, so it gets no zero test; when all terms share one
      modulus it is the kept tuple's row count times it.  So a state whose
      traced-out tuples never repeat has a diagonal marginal;
    * an off-diagonal entry sums the pairs of the plan's groups, and its
      count vector is zero-tested by ``phases.vanishes`` (a bounded cache of
      verdicts); the mirrored entry is the conjugate, with no second zero
      test.

    Entries with one count vector share one Amp.  A state with a real turn
    sums complex products over the same pairs instead.
    """
    sp = s.to_sparse()
    keep = tuple(sorted(keep))
    sites = set(keep)
    if not sites or len(sites) < len(keep) or not sites < set(range(sp.n)):
        raise StateError("keep must be distinct sites of range(%d), a nonempty strict "
                         "subset, got %r" % (sp.n, keep))
    plan = sp._support.plan(keep)
    reading = sp._integer_reading
    if reading is None:
        entries = _float_entries(sp, plan)
    else:
        entries = _exact_entries(sp, reading, plan)
    return DensityMatrix(sp.d, keep, entries)


def _exact_entries(sp, reading, plan):
    """The nonzero entries of an exact partial trace (see reduced_density)."""
    q, den = reading[0], reading[1]
    scale = 1 / (Fraction(sp.scale2) * den * den)
    amps = {}  # count vector -> its entry, or None if it vanishes

    def entry(vec, nonzero=False):
        if vec not in amps:
            amps[vec] = None if not nonzero and vanishes(vec, q) else Amp.from_counts(
                q, {e: c * scale.numerator for e, c in vec}, scale.denominator)
        return amps[vec]

    # a diagonal entry sums squared moduli of nonzero terms, so it is
    # nonzero and needs no zero test
    entries = {(k, k): entry(vec, nonzero=True)
               for k, vec in _exact_diagonal(plan, reading).items()}
    for (ki, kj), vec in _exact_offdiagonal(plan, reading):
        amp = entry(vec)
        if amp is not None:
            entries[ki, kj] = amp
            mirror = tuple(sorted(((-e) % q, c) for e, c in vec))
            if mirror not in amps:  # the conjugate of a nonzero entry
                amps[mirror] = amp.conj()
            entries[kj, ki] = amps[mirror]
    return entries


def _float_entries(sp, plan):
    """The entries of a partial trace with a real turn, as complex sums."""
    scalars = [complex(a) for a in sp.terms.values()]
    sums = {}
    for k, z in zip(plan.kept, scalars):
        sums[k, k] = sums.get((k, k), 0) + z * z.conjugate()
    kept = plan.kept
    for members in plan.groups:
        for i, j in itertools.combinations(members, 2):
            key = kept[i], kept[j]
            sums[key] = sums.get(key, 0) + scalars[i] * scalars[j].conjugate()
    inv_scale, tol = 1.0 / float(sp.scale2), get_tolerance()
    entries = {}
    for (ki, kj), z in sums.items():
        z *= inv_scale
        if abs(z) > tol:
            entries[ki, kj] = Amp(value=z)
            if ki != kj:
                entries[kj, ki] = Amp(value=z.conjugate())
    return entries


def is_k_uniform(s, k: int) -> bool:
    """True iff every k-party reduction is exactly maximally mixed.

    Each reduction reads the ``_TracePlan`` of its kept sites.  An exact
    state builds no ``DensityMatrix``: when its terms share one modulus,
    the diagonal value (len(terms) / d^k rows times that modulus) is
    checked against 1/d^k once, and a plan passes its diagonal when its
    kept tuples are even; otherwise each plan's diagonal entries are summed
    and checked.  Each off-diagonal entry's count vector goes to
    ``phases.vanishes``, and the test stops at the first that does not vanish.
    A state with a real turn asks each ``reduced_density`` whether it
    ``is_maximally_mixed`` within the tolerance.
    """
    sp = s.to_sparse()
    if not 1 <= k <= sp.n // 2:
        return False
    keeps = itertools.combinations(range(sp.n), k)
    reading = sp._integer_reading
    if reading is None:
        return all(reduced_density(sp, keep).is_maximally_mixed() for keep in keeps)
    return _exact_k_uniform(sp, reading, map(sp._support.plan, keeps), sp.d ** k)


def _exact_k_uniform(sp, reading, plans, dim):
    """is_k_uniform on an exact state, over the plans of its k-site sets."""
    q, den, _, _, norm = reading
    scale2 = Fraction(sp.scale2)

    def is_mixed(vec):  # vec / (scale2 * den^2) == 1 / dim
        counts = {e: c * dim * scale2.denominator for e, c in vec}
        counts[0] = counts.get(0, 0) - scale2.numerator * den * den
        return vanishes(count_vector(counts), q)

    if norm is not None:
        rows, rest = divmod(len(sp.terms), dim)
        if rest or not is_mixed(tuple((e, c * rows) for e, c in norm)):
            return False
    for plan in plans:
        if norm is not None:
            if not plan.even:
                return False
        else:
            diag = _exact_diagonal(plan, reading)
            if len(diag) != dim or not all(map(is_mixed, set(diag.values()))):
                return False
        if not all(vanishes(vec, q) for _, vec in _exact_offdiagonal(plan, reading)):
            return False
    return True


def uniformity(s) -> int:
    """Largest k with all k-party reductions maximally mixed (0 if none).

    Levels are tested from N // 2 down with ``is_k_uniform``, and the
    first that holds is the answer: a partial trace of a maximally mixed
    reduction is maximally mixed, so k-uniform implies (k-1)-uniform.  On
    an exact state it builds no ``DensityMatrix``; fresh states on one
    support reuse its cached ``_TracePlan``s and sum only their phases.
    """
    sp = s.to_sparse()
    return next((k for k in range(sp.n // 2, 0, -1) if is_k_uniform(sp, k)), 0)


def support_count(s) -> int:
    return len(s.to_sparse().terms)


def is_minimal_support(s, k: int) -> bool:
    """Minimal support for uniformity k means exactly d^k nonzero terms."""
    sp = s.to_sparse()
    return support_count(sp) == sp.d ** k


def states_equal_up_to_global_phase(a, b) -> Optional[Phase]:
    """The global phase g with a = g*b if the states are proportional, else None.

    Two exact minimal-support states are compared on their integer turns
    (``phases.turn_numerators``): equal supports, and one constant
    difference w_I - w'_I mod q (``phases.turn_difference``), which is g.
    Other inputs compare
    amplitudes by cross ratios, and g is read off the first pair's
    ``Amp.polar`` splits (their float values when either has none).
    """
    if isinstance(a, MinimalSupportState) and isinstance(b, MinimalSupportState):
        if (a.n, a.d) != (b.n, b.d) or a.phases.keys() != b.phases.keys():
            return None
        idxs = list(a.phases)
        q, turns = turn_numerators([a.phases[i] for i in idxs] + [b.phases[i] for i in idxs])
        if isinstance(q, int):
            diff = turn_difference(q, zip(turns[:len(idxs)], turns[len(idxs):]))
            return None if diff is None else numerator_phase(diff, q)
    sa, sb = a.to_sparse(), b.to_sparse()
    if (sa.n, sa.d) != (sb.n, sb.d):
        return None
    if set(sa.terms) != set(sb.terms):
        return None
    if not sa.terms:
        return None
    first = min(sa.terms)
    # cross-ratio test: a_I * b_first == a_first * b_I for every I
    a0, b0 = sa.terms[first], sb.terms[first]
    for idx in sa.terms:
        if not (sa.terms[idx] * b0).equals(a0 * sb.terms[idx]):
            return None
    # the normalized ratio (a0 / sqrt(s2a)) / (b0 / sqrt(s2b)) must be a phase
    split = [x.polar() for x in (a0, b0)]
    if None in split:  # exact, but no rational times a root of unity
        split = [Amp.from_complex(complex(x)).polar() for x in (a0, b0)]
    (ma, pa), (mb, pb) = split
    if _moduli_differ(ma * ma * sb.scale2 / (mb * mb * sa.scale2), 1):
        return None
    return pa / pb
