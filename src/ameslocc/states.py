"""k-uniform and AME state construction and analysis.

States live on n qudits of local dimension d.  Two representations are used:

* ``MinimalSupportState`` -- a set of multi-indices (the support) with one
  unit-modulus phase per index and an implicit overall 1/sqrt(#terms).
* ``SparseState`` -- arbitrary complex amplitudes per index with an implicit
  1/sqrt(scale2) normalization, exact whenever the amplitudes are.

All constructions from the literature of index-unity orthogonal arrays end up
minimal support: exactly d^k terms whose projection onto any k positions is a
bijection onto [d]^k.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .phases import ONE, Amp, Phase, get_tolerance, root_of_unity

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
        if len(self.phases) != self.d ** self.k:
            raise StateError(
                "support size %d != d^k = %d" % (len(self.phases), self.d ** self.k))
        for idx in self.phases:
            _check_index(idx, self.n, self.d)
        for cols in itertools.combinations(range(self.n), self.k):
            seen = {tuple(idx[c] for c in cols) for idx in self.phases}
            if len(seen) != self.d ** self.k:
                raise StateError(
                    "support is not index-unity on columns %r" % (cols,))

    @property
    def support(self):
        return set(self.phases)

    @property
    def is_exact(self):
        return all(p.is_exact for p in self.phases.values())

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
    def from_json(obj, k=None) -> "MinimalSupportState":
        n, d = obj["n"], obj["d"]
        phases = {tuple(t["idx"]): Phase.from_json(t["phase"]) for t in obj["terms"]}
        if k is None:
            k = _infer_k(d, len(phases))
        return MinimalSupportState(n, d, k, phases)

    def __repr__(self):
        return f"MinimalSupportState(n={self.n}, d={self.d}, k={self.k}, {len(self.phases)} terms)"


def _infer_k(d, count):
    k = 0
    while d ** k < count:
        k += 1
    if d ** k != count:
        raise StateError("support size %d is not a power of d=%d" % (count, d))
    return k


class SparseState:
    """Sparse state with Amp-valued terms and implicit 1/sqrt(scale2) factor."""

    def __init__(self, n: int, d: int, terms: Dict[MultiIndex, Amp], scale2):
        self.n = n
        self.d = d
        self.terms = {tuple(i): a for i, a in terms.items() if not a.is_zero()}
        self.scale2 = scale2  # squared norm the raw amplitudes are meant to have
        for idx in self.terms:
            _check_index(idx, self.n, self.d)

    @property
    def is_exact(self):
        return all(a.is_exact for a in self.terms.values())

    def to_sparse(self):
        return self

    def as_minimal(self, k=None) -> Optional[MinimalSupportState]:
        """Reinterpret as a MinimalSupportState when all amplitudes share one
        modulus and the support has the index-unity property; None otherwise."""
        if not self.terms:
            return None
        try:
            k = _infer_k(self.d, len(self.terms)) if k is None else k
        except StateError:
            return None
        phases = {}
        ref = None
        for idx, a in self.terms.items():
            if a.is_exact:
                # factor out a common rational magnitude: all |a| must agree
                split = _exact_phase_split(a)
                if split is None:
                    return None
                m, p = split
                if ref is None:
                    ref = m
                elif m != ref:
                    return None
                phases[idx] = p
            else:
                z = complex(a)
                m = abs(z)
                if ref is None:
                    ref = m
                elif abs(m - ref) > get_tolerance() * max(1.0, ref):
                    return None
                phases[idx] = Phase(cmath.phase(z) / (2 * math.pi))
        try:
            return MinimalSupportState(self.n, self.d, k, phases)
        except StateError:
            return None

    def to_json(self):
        out = []
        for i in sorted(self.terms):
            a = self.terms[i]
            p = a.as_single_phase()
            if p is None:
                z = complex(a)
                out.append({"idx": list(i), "re": z.real, "im": z.imag})
            else:
                out.append({"idx": list(i), "phase": p.to_json()})
        return {"n": self.n, "d": self.d, "scale2": str(self.scale2), "terms": out}

    @staticmethod
    def from_json(obj) -> "SparseState":
        terms = {}
        for t in obj["terms"]:
            idx = tuple(t["idx"])
            if "phase" in t:
                terms[idx] = Amp.from_phase(Phase.from_json(t["phase"]))
            else:
                terms[idx] = Amp.from_complex(complex(t["re"], t["im"]))
        # unit-modulus terms with equal weights: squared norm is the count
        scale2 = Fraction(obj["scale2"]) if "scale2" in obj else len(terms)
        return SparseState(obj["n"], obj["d"], terms, scale2=scale2)

    def __repr__(self):
        return f"SparseState(n={self.n}, d={self.d}, {len(self.terms)} terms)"


def _exact_phase_split(a: Amp):
    """Write an exact Amp as (positive rational magnitude, Phase), or None.

    Sums of roots of unity can collapse to r * root-of-unity without being a
    single stored term, so the candidate turn is guessed numerically and then
    verified exactly.  If r * zeta lies in Q(zeta_q), q the lcm of the term
    denominators, then zeta is an lcm(2, q)-th root of unity, so the guess is
    rounded to that grid and the check never leaves the field of the input.
    """
    if len(a.terms) == 1:
        (t, c), = a.terms.items()
        if c > 0:
            return c, Phase(t)
        return -c, Phase((t + Fraction(1, 2)) % 1)
    z = complex(a)
    if abs(z) < 1e-12:
        return None
    order = math.lcm(2, *(t.denominator for t in a.terms))
    t = Fraction(round(cmath.phase(z) / (2 * math.pi) * order), order) % 1
    m = Fraction(abs(z)).limit_denominator(10 ** 6)
    if a.equals(Amp(terms={t: m})):
        return m, Phase(t)
    return None


# ---------------------------------------------------------------------------
# constructors

def construct_ghz(n: int, d: int) -> MinimalSupportState:
    """The n-party generalized GHZ state (|0...0> + ... + |d-1...d-1>)/sqrt(d)."""
    if n < 2 or d < 2:
        raise StateError("GHZ needs n >= 2 and d >= 2")
    phases = {(i,) * n: ONE for i in range(d)}
    return MinimalSupportState(n, d, 1, phases)


def _is_prime(d):
    if d < 2:
        return False
    return all(d % p for p in range(2, int(d ** 0.5) + 1))


def construct_linear(d: int, coeffs: Sequence[Sequence[int]]) -> MinimalSupportState:
    """State over Z_d whose site p carries sum_m coeffs[p][m] * x_m (mod d).

    ``coeffs`` has one row per site and one column per free index; d must be
    prime so that the linear-algebra strength argument applies.  The index-unity
    invariant of the result is verified, not assumed.
    """
    if not _is_prime(d):
        raise StateError("construct_linear requires prime d, got %d" % d)
    n = len(coeffs)
    k = len(coeffs[0])
    if any(len(row) != k for row in coeffs):
        raise StateError("ragged coefficient table")
    phases = {}
    for x in itertools.product(range(d), repeat=k):
        idx = tuple(sum(c * xi for c, xi in zip(row, x)) % d for row in coeffs)
        phases[idx] = ONE
    return MinimalSupportState(n, d, k, phases)


def construct_ame43() -> MinimalSupportState:
    """AME(4,3): sum over i,j of |i, j, i+j, 2i+j> (mod 3)."""
    return construct_linear(3, [[1, 0], [0, 1], [1, 1], [2, 1]])


def ame_linear_5(d: int) -> MinimalSupportState:
    """The |i,j,i+j,2i+j,3i+j> family; an AME(5,d) state for prime d >= 5."""
    return construct_linear(d, [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]])


# GF(4) with elements 0,1,2,3; addition is XOR, multiplication from x^2 = x+1.
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def gf4_add(a: int, b: int) -> int:
    return a ^ b


def gf4_mul(a: int, b: int) -> int:
    return _GF4_MUL[a][b]


def ame44_tables():
    """The two MOLS(4)-forming tables behind construct_ame44."""
    m1 = [[gf4_add(i, j) for j in range(4)] for i in range(4)]
    m2 = [[gf4_add(i, gf4_mul(2, j)) for j in range(4)] for i in range(4)]
    return m1, m2


def construct_ame44() -> MinimalSupportState:
    """AME(4,4): sum over i,j of |i, j, M1[i][j], M2[i][j]> using the GF(4)
    multiplication tables M1[i][j] = i+j and M2[i][j] = i + 2j (field ops)."""
    m1, m2 = ame44_tables()
    phases = {(i, j, m1[i][j], m2[i][j]): ONE
              for i in range(4) for j in range(4)}
    return MinimalSupportState(4, 4, 2, phases)


def construct_ame64() -> MinimalSupportState:
    """AME(6,4) of minimal support from the [6,3,4] MDS code over GF(4).

    Sites carry (x, y, z, x+y+z, x+2y+3z, x+3y+2z) in GF(4) arithmetic; the
    strength-3 property is verified by the constructor.
    """
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 3, 2]]
    phases = {}
    for x in itertools.product(range(4), repeat=3):
        idx = []
        for row in rows:
            acc = 0
            for c, xi in zip(row, x):
                acc = gf4_add(acc, gf4_mul(c, xi))
            idx.append(acc)
        phases[tuple(idx)] = ONE
    return MinimalSupportState(6, 4, 3, phases)


def construct_ame5_phased(d: int) -> SparseState:
    """The d^3-term AME(5,d) state sum_{i,j,k} w^{(3i+j)k} |i,j,i+j,2i+j+k,k>."""
    if d < 2:
        raise StateError("need d >= 2")
    terms = {}
    for i, j, k in itertools.product(range(d), repeat=3):
        idx = (i, j, (i + j) % d, (2 * i + j + k) % d, k)
        terms[idx] = Amp.from_phase(root_of_unity(d, (3 * i + j) * k))
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
    of kept-site symbol tuples.
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
        want = Amp(terms={Fraction(0): Fraction(1, self.dim)})
        return len(self.entries) == self.dim and all(
            row == col and a.equals(want) for (row, col), a in self.entries.items())

    def trace(self) -> Amp:
        t = Amp.zero()
        for (row, col), a in self.entries.items():
            if row == col:
                t = t + a
        return t


def reduced_density(s, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace onto the given positions, normalized to trace 1.

    Terms are grouped by their projection onto the traced-out positions;
    only pairs within a group contribute, which keeps the cost near
    (#terms)^2 / #groups.
    """
    sp = s.to_sparse()
    keep = tuple(sorted(keep))
    if not keep or len(keep) >= sp.n:
        raise StateError("keep must be a nonempty strict subset of positions")
    drop = tuple(p for p in range(sp.n) if p not in set(keep))
    inv_scale = Fraction(1) / Fraction(sp.scale2) if sp.is_exact else 1.0 / float(sp.scale2)
    groups = {}
    for idx, c in sp.terms.items():
        key = tuple(idx[p] for p in drop)
        groups.setdefault(key, []).append((tuple(idx[p] for p in keep), c))
    sums: Dict[Tuple[MultiIndex, MultiIndex], Amp] = {}
    for members in groups.values():
        for (ki, ci) in members:
            for (kj, cj) in members:
                amp = (ci * cj.conj()).scaled(inv_scale)
                got = sums.get((ki, kj))
                sums[(ki, kj)] = amp if got is None else got + amp
    entries = {key: a for key, a in sums.items() if not a.is_zero()}
    return DensityMatrix(sp.d, keep, entries)


def is_k_uniform(s, k: int) -> bool:
    """True iff every k-party reduction is exactly maximally mixed."""
    sp = s.to_sparse()
    if not 1 <= k <= sp.n // 2:
        return False
    return all(reduced_density(sp, keep).is_maximally_mixed()
               for keep in itertools.combinations(range(sp.n), k))


def uniformity(s) -> int:
    """Largest k with all k-party reductions maximally mixed (0 if none)."""
    sp = s.to_sparse()
    best = 0
    for k in range(1, sp.n // 2 + 1):
        if is_k_uniform(sp, k):
            best = k
        else:
            break
    return best


def support_count(s) -> int:
    return len(s.to_sparse().terms)


def is_minimal_support(s, k: int) -> bool:
    """Minimal support for uniformity k means exactly d^k nonzero terms."""
    sp = s.to_sparse()
    return support_count(sp) == sp.d ** k


def states_equal_up_to_global_phase(a, b) -> Optional[Phase]:
    """The global phase g with a = g*b if the states are proportional, else None."""
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
    # extract the unit ratio of the normalized amplitudes a0/sqrt(s2a) etc.
    if a0.is_exact and b0.is_exact:
        sa_split, sb_split = _exact_phase_split(a0), _exact_phase_split(b0)
        if sa_split is not None and sb_split is not None:
            ma, pa = sa_split
            mb, pb = sb_split
            if ma * ma * Fraction(sb.scale2) != mb * mb * Fraction(sa.scale2):
                return None
            return pa / pb
    g = (complex(a0) / math.sqrt(float(sa.scale2))) / \
        (complex(b0) / math.sqrt(float(sb.scale2)))
    if abs(abs(g) - 1.0) > get_tolerance():
        return None
    return Phase(cmath.phase(g) / (2 * math.pi))
