"""Five-party arguments for SLOCC non-equivalence.

``lu_witness`` is the screen ``decide_slocc`` runs, in its two steps
(``_lu_head``, then ``_lu_rest``).  It reads both inputs: a
minimal-support AME(5,d) state and a state of equal-modulus root-of-unity
terms on a coset of a linear code over prime GF(d).  The degree-(3, 3)
invariant I_pi of ``LU_PATTERN`` is d^-4 on every minimal-support AME(5,d)
state, and one counted set of valid tuples, or one tuple of nonzero turn,
shows that the other state's value is smaller.  Critical states in one
SLOCC orbit are LU-equivalent, so that settles SLOCC inequivalence.

``verify_ame5_nonequivalence`` mechanizes the support-counting proof that
the phased five-party family (d^3 terms) is never locally equivalent to
the linear minimal-support family (d^2 terms): a pair of structured
unitaries built from triangular numbers diagonalizes the 3-party reduction
of the phased state locally, and any would-be equivalence then forces a
support of d^4 on a state with d^3 terms.  It reads d alone, not a state,
and ``ame-slocc reproduce appendix-d`` reports it for prime 5 <= d <= 23.
Pairs of minimal-support states are decided by ``equivalence.lm_match``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, islice, permutations, product, repeat
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .butson import _exp_rows_orthogonal
from .phases import Amp, Phase, count_vector, get_tolerance, root_of_unity, vanishes
from .states import (_is_prime, _moduli_differ, ame_linear_5, construct_ame5_phased,
                     reduced_density)


class ReductionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The structured diagonalizing unitaries for the five-party argument.
# ---------------------------------------------------------------------------

def _triangular(k: int) -> int:
    return (k + 1) * k // 2


@dataclass
class TriangularMatrixPair:
    """Exponent matrices W, V (mod d) and their phase matrices U4, U5.

    U4 = (w^{W[i][j]}) / sqrt(d) and U5 = (w^{V[i][j]}) / sqrt(d) with w the
    primitive d-th root of unity; both are unitary for every odd d.
    """
    d: int
    w: Tuple[Tuple[int, ...], ...]
    v: Tuple[Tuple[int, ...], ...]

    def u4(self) -> List[List[Phase]]:
        return [[root_of_unity(self.d, e) for e in row] for row in self.w]

    def u5(self) -> List[List[Phase]]:
        return [[root_of_unity(self.d, e) for e in row] for row in self.v]


def _closed_form_w(i: int, j: int, d: int) -> int:
    return (2 * _triangular(j - i - 1)) % d


def _closed_form_v(i: int, j: int, d: int) -> int:
    if i % 2 == 0:
        return (-2 * _triangular(j - i // 2 - 1)) % d
    return (-2 * _triangular(j - (i + d) // 2 - 1)) % d


def build_u4_u5(d: int) -> TriangularMatrixPair:
    """Recursive construction of the diagonalizing pair; d must be odd.

    First rows: w[0][j+1] = w[0][j] + 2j and v[0][j+1] = v[0][j] - 2j, from
    w[0][0] = v[0][0] = 0.  Later rows shift the previous one: w[i][j] =
    w[i-1][j-1], v[i][j] = v[i-2][j-1] (indices mod d; the double step only
    covers every row because d is odd).  A closed formula via triangular
    numbers t_k = (k+1)k/2 is cross-checked entrywise.
    """
    if d < 3 or d % 2 == 0:
        raise ReductionError("the construction needs an odd d >= 3")
    w = [[0] * d for _ in range(d)]
    v = [[0] * d for _ in range(d)]
    for j in range(d - 1):
        w[0][j + 1] = (w[0][j] + 2 * j) % d
        v[0][j + 1] = (v[0][j] - 2 * j) % d
    for i in range(1, d):
        for j in range(d):
            w[i][j] = w[i - 1][(j - 1) % d]
    # rows of v are reachable from row 0 in steps of two (mod d)
    row = 0
    for _ in range(d - 1):
        prev, row = row, (row + 2) % d
        for j in range(d):
            v[row][j] = v[prev][(j - 1) % d]
    for i in range(d):
        for j in range(d):
            if w[i][j] != _closed_form_w(i, j, d):
                raise ReductionError("closed formula disagrees with the "
                                     "recursion for W at (%d, %d)" % (i, j))
            if v[i][j] != _closed_form_v(i, j, d):
                raise ReductionError("closed formula disagrees with the "
                                     "recursion for V at (%d, %d)" % (i, j))
    pair = TriangularMatrixPair(d, tuple(map(tuple, w)), tuple(map(tuple, v)))
    for rows in (pair.w, pair.v):
        if not all(_exp_rows_orthogonal(r, t, d) for r, t in combinations(rows, 2)):
            raise ReductionError("constructed matrix is not unitary")
    return pair


# ---------------------------------------------------------------------------
# The three-party reduction lemma and the non-equivalence certificate.
# ---------------------------------------------------------------------------

def _conjugated_rho_prime(d: int, w, v):
    """(Id x U4 x U5) rho' (Id x U4 x U5)^dagger as a sparse Amp dict.

    rho' is an ensemble of d^2 orthogonal basis vectors, so the conjugation
    is a sum of outer products of the transformed columns: entry (x, y) of
    block s counts the exponents e_x - e_y mod d, read from w and v, the
    exponent matrices of U4 and U5.  Those histograms are packed one byte
    per exponent slot, 2d slots per column y, into one int per row x: each
    ensemble vector shifts a base int (a 1 at slot -e_y mod d of every
    column) by e_x slots into each row.  Folding the two halves of a column
    gives its count vector (no count exceeds d < 256), sliced from the
    block's bytes; ``phases.vanishes`` tests each distinct vector once.
    """
    if d > 255:
        raise ReductionError("one byte per exponent slot needs d < 256")
    dd, width = d * d, 2 * d
    low = int.from_bytes((b"\xff" * d + bytes(d)) * dd, "little")
    units = [bytes(int(i == -e % d) for i in range(width)) for e in range(d)]
    entries: Dict[bytes, Optional[Amp]] = {}  # count vector -> entry
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Amp] = {}
    for s in range(d):
        rows = [0] * dd
        for j in range(d):
            # ensemble vector |i+j, i+2j, i+3j> written with s = i + j
            a, b = (s + j) % d, (s + 2 * j) % d
            # exponent matrices index (input symbol, output symbol), so the
            # column of the applied operator reads the a-th/b-th rows
            col = [(wm + vk) % d for wm in w[a] for vk in v[b]]
            base = int.from_bytes(b"".join(map(units.__getitem__, col)), "little")
            shifted = [base << 8 * e for e in range(d)]
            rows = [r + shifted[e] for r, e in zip(rows, col)]
        block = b"".join([((r & low) + ((r >> 8 * d) & low)).to_bytes(
            width * dd, "little") for r in rows])
        vecs = [block[i:i + d] for i in range(0, len(block), width)]
        for vec in set(vecs).difference(entries):
            counts = count_vector(dict(enumerate(vec)))
            # 1/d^2 ensemble weight, 1/d per unitary factor
            entries[vec] = None if vanishes(counts, d) else Amp.from_counts(
                d, dict(counts), d ** 4)
        amps = list(map(entries.__getitem__, vecs))
        sites = [(s, m, kk) for m in range(d) for kk in range(d)]
        out.update(zip(compress(product(sites, sites), amps),
                       compress(amps, amps)))
    return out


#: The largest d the lemma and the certificate take.  Their cost grows as
#: about d^7: one cold call took 4.3 s and 149 MB at d = 23, and 21.5 s and
#: 387 MB at d = 29, on a 2-vCPU VM with Python 3.11.
_MAX_PIPELINE_D = 23


def verify_rho345_lemma(d: int) -> bool:
    """Conjugating the diagonal reduction of the linear family by
    Id x U4 x U5 reproduces the reduction of the phased family exactly."""
    if d % 2 == 0 or d > _MAX_PIPELINE_D:  # checked before the d^3 terms
        raise ReductionError("the lemma is checked for odd d <= %d only" % _MAX_PIPELINE_D)
    return _rho345_lemma_holds(d, construct_ame5_phased(d))


def _rho345_lemma_holds(d: int, phased) -> bool:
    """verify_rho345_lemma for odd d, against ``phased``, the state
    construct_ame5_phased(d) returns."""
    pair = build_u4_u5(d)
    got = _conjugated_rho_prime(d, pair.w, pair.v)
    rho = reduced_density(phased, (2, 3, 4)).entries
    # both sides share one Amp per count vector: compare each pair once
    return got.keys() == rho.keys() and all(
        a.equals(b) for a, b in {(rho[key], amp) for key, amp in got.items()})


def verify_ame5_nonequivalence(d: int) -> dict:
    """Structured certificate that the phased and linear five-party families
    are not locally equivalent for prime d >= 5, checked for d <= 23
    (``_MAX_PIPELINE_D``).

    Steps: (1) the three-party reductions are monomially related through the
    triangular-number unitaries, so any local equivalence of the full states
    factors as monomial layers times Id x U4 x U5 on the last three sites and
    monomial factors on the first two; (2) every column of U4 x U5 is fully
    dense, so the image of each of the d^2 linear-family terms has support
    d^2, and the forced support d^2 * d^2 = d^4 contradicts the d^3-term
    support of the phased family.

    The report depends on d alone, so it is built once per d.  Each call
    returns a copy of its dict and of each step's dict, whose values are
    all immutable, so no caller can change the next call's report.
    """
    if not (_is_prime(d) and 5 <= d <= _MAX_PIPELINE_D):  # the lemma's cap, checked first
        raise ReductionError("the certificate is built for prime 5 <= d <= %d only"
                             % _MAX_PIPELINE_D)
    report = _ame5_certificate(d)
    return {**report, "steps": [dict(step) for step in report["steps"]]}


@lru_cache(maxsize=None)
def _ame5_certificate(d: int) -> dict:
    """The report of ``verify_ame5_nonequivalence`` for a validated d."""
    steps = []
    phased = construct_ame5_phased(d)
    ok1 = _rho345_lemma_holds(d, phased)
    steps.append({"step": "rho345-lemma",
                  "claim": "Id x U4 x U5 conjugates the diagonal 3-party "
                           "reduction of the linear family onto the phased "
                           "family's reduction",
                  "passed": ok1})
    linear = ame_linear_5(d)
    supp_phased = len(phased.terms)
    supp_linear = len(linear.phases)
    # build_u4_u5 checks that U4 and U5 are Butson, so every entry of U4 x U5
    # is a root of unity and each column |a,b> has all d^2 entries nonzero
    forced = supp_linear * d * d
    ok3 = (supp_phased == d ** 3 and supp_linear == d ** 2
           and forced != supp_phased)
    steps.append({"step": "support-count",
                  "claim": "monomial outer factors preserve term counts, so "
                           "an equivalence would give the phased state "
                           "support d^4, but it has d^3 terms",
                  "passed": ok3,
                  "phased_support": supp_phased,
                  "linear_support": supp_linear,
                  "forced_support": forced})
    all_passed = all(s["passed"] for s in steps)
    return {"d": d, "steps": steps, "all_passed": all_passed,
            "verdict": "inequivalent" if all_passed else "inconclusive"}


# ---------------------------------------------------------------------------
# The five-party LU-invariant witness.

#: The pattern of the degree-(3, 3) invariant I_pi: party p gives s_j the
#: symbol of r_{pi_p(j)}, with pi_p entry LU_PATTERN[p] of
#: itertools.permutations(range(3)).
LU_PATTERN = (0, 2, 5, 1, 3)
_COPIES = tuple(tuple(permutations(range(3)))[i] for i in LU_PATTERN)
#: lu_witness tries at most this many tuples of V per pair: all of V up to
#: |V| = 7^5, at about 25 us per tuple.
_TUPLE_CAP = 1 << 15


def _echelon(rows, p, stop=None):
    """The reduced row echelon form of integer rows over GF(p), p prime, as
    (pivot column, row) pairs with pivot entry 1; it reads no more rows
    once it holds ``stop`` of them."""
    out = []
    for row in rows:
        row = [x % p for x in row]
        for col, prow in out:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        col = next((i for i, x in enumerate(row) if x), None)
        if col is None:
            continue
        inv = pow(row[col], -1, p)
        row = [x * inv % p for x in row]
        out = [(c0, [(a - r[col] * b) % p for a, b in zip(r, row)] if r[col] else r)
               for c0, r in out]
        out.append((col, row))
        if len(out) == stop:
            break
    return out


def _nullspace(rows, width, p):
    """A basis of the x in GF(p)^width with r.x = 0 for each of the rows:
    one vector per free column of their reduced echelon form."""
    ech = _echelon(rows, p)
    pivots = {col for col, _ in ech}
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [0] * width
            v[free] = 1
            for col, row in ech:
                v[col] = -row[free] % p
            basis.append(v)
    return basis


class _Tuples(NamedTuple):
    """V, the valid tuples of I_pi on an affine support over prime GF(d),
    as far as they depend on the support alone."""

    rank: int    # k with d^k rows
    dim: int     # dim V, so |V| = d^dim
    rows: list   # the support rows in term order
    first: list  # the term numbers (r1, r2, r3, s1, s2, s3) of each basis
                 # vector of V, then of each pairwise sum
    rest: object  # a function giving those of every other element of V


@lru_cache(maxsize=32)
def _valid_tuples(support) -> Optional[_Tuples]:
    """The ``_Tuples`` of a five-party ``states._Support``, or None when d is
    not prime or the rows are no coset r0 + C of a linear code C.

    With r0 the first row, the first k independent differences r - r0
    (d^k rows) span a code C of d^k words.  When every row passes each
    parity check of C, the rows lie in r0 + C, and being d^k distinct rows
    they are all of it.  A tuple is x = (x1, x2, x3)
    in GF(d)^3k, r_i = r0 + G x_i for a generator matrix G of C, and s_j
    copies r_{pi_p(j)} at party p; s_j lies in r0 + C when H (s_j - r0) = 0
    for a parity check H of C.  Those 3 (5 - k) equations are linear in x,
    so V is their kernel.
    """
    cols, d = support.cols, support.d
    if len(cols) != len(_COPIES) or not cols[0] or not _is_prime(d):
        return None
    n, m = len(cols), len(cols[0])
    rank = round(math.log(m, d))
    if d ** rank != m:
        return None
    rows = list(zip(*cols))
    base = rows[0]
    gens = [g for _, g in _echelon(([a - b for a, b in zip(row, base)] for row in rows),
                                   d, rank)]
    checks = _nullspace(gens, n, d)
    for h in checks:  # h.r takes one value on r0 + C, column by column
        acc = [0] * m
        for c, col in zip(h, cols):
            if c:
                acc = list(map(add, acc, map(mul, col, repeat(c))))
        if len({x % d for x in acc}) != 1:
            return None
    system = [[sum(h[p] * g[p] for p in range(n) if _COPIES[p][j] == i) for i in range(3)
               for g in gens]
              for j in range(3) for h in checks]
    basis = _nullspace(system, 3 * rank, d)
    index = {row: r for r, row in enumerate(rows)}

    def terms(v):
        """The term numbers of the tuple x = v, a vector of GF(d)^3k."""
        r = [[(b + sum(c * g[p] for c, g in zip(v[i * rank:(i + 1) * rank], gens))) % d
              for p, b in enumerate(base)] for i in range(3)]
        s = [[r[copy[j]][p] for p, copy in enumerate(_COPIES)] for j in range(3)]
        return tuple(index[tuple(row)] for row in r + s)

    def combine(coeffs):
        return [sum(c * v[x] for c, v in zip(coeffs, basis)) % d for x in range(3 * rank)]

    units = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    pairs = [tuple(a + b for a, b in zip(u, w)) for u, w in combinations(units, 2)]

    def rest():
        tried = set(units + pairs)
        for coeffs in product(range(d), repeat=len(basis)):
            if any(coeffs) and coeffs not in tried:
                yield terms(combine(coeffs))

    return _Tuples(rank, len(basis), rows, [terms(combine(c)) for c in units + pairs], rest)


def _term_turns(sp):
    """(q, turn) for a state whose terms are one modulus times a root of
    unity each: turn(r) is the r-th term's turn over q, an integer
    numerator over an int q, or a float with q = 1.0 when the state has a
    real turn.  None for any other state."""
    reading = sp._integer_reading
    if reading is not None:
        q, _, pairs, _, norm = reading
        if norm is None or max(map(len, pairs)) != 1:
            return None
        # c w^e with c < 0 is |c| w^(e + q/2)
        return 2 * q, lambda r: 2 * pairs[r][0][0] + (pairs[r][0][1] < 0) * q
    splits = [a.polar() for a in sp.terms.values()]
    if None in splits or any(_moduli_differ(m, splits[0][0]) for m, _ in splits):
        return None
    turns = [p._real_turn() for _, p in splits]
    return 1.0, turns.__getitem__


def lu_witness(minimal, other):
    """Certify that a minimal-support AME(5,d) state and another five-party
    state are not LU-equivalent, from the invariant I_pi of LU_PATTERN:
    (details, tuples_tried, exact), or None when this screen cannot tell.

    I_pi(psi) sums psi(r1) psi(r2) psi(r3) conj(psi(s1) psi(s2) psi(s3)) over
    the valid tuples: support rows r1, r2, r3 whose copies s_j, with s_j
    taking the symbol of r_{pi_p(j)} at party p, are support rows too.  At
    each party the conjugate indices are a permutation of the others, so a
    local unitary cancels against its conjugate: I_pi of a normalised state
    is an LU invariant, blind to a global phase.

    * The minimal side.  Its support has index unity with k = 2: two rows
      that agree at two parties are one row.  For this pattern s3 agrees
      with r3 at parties 0 and 1, so s3 = r3, and s1 agrees with r1 at
      parties 0 and 3, so s1 = r1.  Then r1 and r3 agree at parties 2 and
      4 (through s3), and r1 and r2 at parties 1 and 4 (through s1), so
      r1 = r2 = r3.  Only the d^2 diagonal tuples are valid, each term is
      |psi(r)|^6 = d^-6, and I_pi = d^-4 whatever the phases.
    * The other side.  ``minimal`` must be a MinimalSupportState with
      k = 2 and N = 5.  ``other`` must have m terms, each one modulus times
      a root of unity w^phi(r), on a coset of a linear code over prime
      GF(d) (``_valid_tuples``).  Each term of I_pi then has modulus m^-3
      and turn E = sum phi(r_i) - sum phi(s_j), and the diagonal terms
      are m^-3.  So |V| < m^3 / d^4 valid tuples give |I_pi| < d^-4, and
      |V| = m^3 / d^4 with one tuple of E != 0 gives Re I_pi < d^-4.
      Either way I_pi differs from the minimal side's.

    The screen runs in two steps, which ``decide_slocc`` also takes apart.
    The head (``_lu_head``) searches nothing: the count |V| < m^3 / d^4,
    then V's basis vectors and their pairwise sums.  The rest
    (``_lu_rest``) tries the other elements of V, at most _TUPLE_CAP
    tuples in all, counting on from the head's.  A state with a real turn
    reads its turns in floats, and a tuple is a witness only when its E is
    farther than the tolerance from an integer; then exact is False.
    ``details`` holds the pattern, |V| (``valid_tuples``), m^3 / d^4
    (``bound``), and the witness rows r1, r2, r3 with E as [numerator,
    denominator] (both None when |V| is below the bound).
    """
    reading = _lu_reading(minimal, other)
    if reading is None:
        return None
    return _lu_head(reading) or _lu_rest(reading)


class _Reading(NamedTuple):
    """What the LU screen reads of a pair before it tries a tuple."""

    details: dict   # lu_witness's details, witness still None
    tuples: _Tuples  # V of the non-minimal side
    witness_turn: object  # the E of a tuple of term numbers as [num, den],
                          # or None when E is an integer
    exact: bool


def _lu_reading(minimal, other) -> Optional[_Reading]:
    """The ``_Reading`` of a pair, or None when lu_witness cannot screen
    it: a minimal side that is not AME(5,d), another side of a different
    shape, on no coset of a linear code, with |V| above m^3 / d^4, or with
    terms of more than one modulus or no root-of-unity phase."""
    sp = other.to_sparse()
    if (minimal.n, minimal.k, sp.n, sp.d) != (5, 2, 5, minimal.d):
        return None
    tuples = _valid_tuples(sp._support)
    if tuples is None:
        return None
    power = 3 * tuples.rank - 4  # m^3 / d^4 = d^power
    found = _term_turns(sp) if tuples.dim <= power else None
    if found is None:
        return None
    q, turn = found
    real = isinstance(q, float)
    tol = get_tolerance()

    def witness_turn(t):
        a, b, c, x, y, z = t
        e = (turn(a) + turn(b) + turn(c) - turn(x) - turn(y) - turn(z)) % q
        if real:
            return [e, 1] if abs(e - round(e)) > tol else None
        g = math.gcd(e, q)
        return [e // g, q // g] if e else None

    details = {"pattern": list(LU_PATTERN), "valid_tuples": sp.d ** tuples.dim,
               "bound": sp.d ** power, "witness": None, "witness_turn": None}
    return _Reading(details, tuples, witness_turn, not real and minimal.is_exact)


def _lu_head(reading: _Reading):
    """lu_witness's answer from no search, or None: |V| below the bound,
    or a witness among V's basis vectors and their pairwise sums."""
    if reading.details["valid_tuples"] < reading.details["bound"]:
        return reading.details, 0, reading.exact
    return _lu_search(reading, reading.tuples.first, 0)


def _lu_rest(reading: _Reading):
    """lu_witness's answer from the rest of V, after a head that found
    nothing, or None."""
    first = len(reading.tuples.first)
    return _lu_search(reading, islice(reading.tuples.rest(), _TUPLE_CAP - first), first)


def _lu_search(reading, candidates, tried):
    """(details, tuples_tried, exact) for the first witness among
    candidates, the tuples after the ``tried`` already tried; or None."""
    for tried, t in enumerate(candidates, tried + 1):
        e = reading.witness_turn(t)
        if e is not None:
            reading.details["witness"] = [list(reading.tuples.rows[r]) for r in t[:3]]
            reading.details["witness_turn"] = e
            return reading.details, tried, reading.exact
    return None
