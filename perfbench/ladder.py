"""Known-answer inputs for the decision benchmark, and the answer checks.

Every operation carries an answer that does not come from the engine under
test:

* equivalent by construction: dst = M(src) for a random local monomial M,
  optionally after a per-site Butson layer.  Diagonal phases are m/360
  turns with m coprime to 360, so they are never d-th roots of unity;
* the rank / cokernel test on a minimal-support base: let A be the incidence
  matrix of support rows x (site, symbol) and t the decoration turns.  If A
  has full row rank, every decoration is reachable with the identity
  permutation (equivalent).  If some integer c with c^T A = 0 has c.t not in
  Z, no local monomial reaches the decoration (inequivalent).  Support
  automorphisms permute the cokernel, so one such c rules out every support
  permutation.  The cokernel is computed with sympy here, independent of
  ``ameslocc.modsolve``;
* the literature: AME(6,4) family members phi_a, phi_b with a != +-b are
  inequivalent; the d^3-term phased five-party state is not equivalent to
  the linear family; BH(d,d) has 1, 2, 1 classes for d = 3, 4, 5;
  F_6 ~ F_2 x F_3 while F_4 and F_2 x F_2 are inequivalent;
* a monomial invariant computed here: BH matrices whose row-pair and
  column-pair difference profiles differ are monomially inequivalent.

A workload is a stream of batches.  Batch i depends only on (workload,
seed, i), every batch of a workload has the same composition, and no input
repeats within a seed except the parameter-free census calls.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from ameslocc import butson, states
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import Phase, phase_product, root_of_unity

# Decoration and diagonal phases are m/360 turns with m coprime to 360: never
# d-th roots of unity, and every draw costs the same exact arithmetic.
DENOMINATOR = 360

# One dephased exponent matrix (entries mod 6) per monomial class of
# BH(6,6).  batch() re-checks that each is Butson and that the invariant
# below separates all four.
BH6_CLASSES = (
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 3, 3, 3), (0, 2, 4, 0, 2, 4),
     (0, 2, 4, 3, 5, 1), (0, 4, 2, 0, 4, 2), (0, 4, 2, 3, 1, 5)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 3, 3, 3), (0, 2, 4, 0, 2, 4),
     (0, 2, 4, 3, 5, 1), (0, 4, 2, 1, 5, 3), (0, 4, 2, 4, 2, 0)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 1, 3, 3, 4), (0, 2, 4, 0, 2, 4),
     (0, 2, 5, 3, 5, 2), (0, 4, 2, 0, 4, 2), (0, 4, 3, 3, 1, 0)),
    ((0, 0, 0, 0, 0, 0), (0, 0, 2, 2, 4, 4), (0, 2, 0, 4, 2, 4),
     (0, 2, 4, 0, 4, 2), (0, 4, 2, 4, 0, 2), (0, 4, 4, 2, 2, 0)),
)

# BH(d,d) class counts from the literature (Tadej and Zyczkowski, "A concise
# guide to complex Hadamard matrices", 2006).  d = 6 (4 classes) is not run:
# one enumerate_bh(6) call takes 60-80 s, longer than a whole run.
CENSUS = {3: 1, 4: 2, 5: 1}


@dataclass
class Op:
    """One timed call with its known answer.

    kind is "decide" (decide_slocc(src, dst)), "census" (enumerate_bh(d))
    or "bh-pair" (monomially_equivalent(a, b)).  expect is "equivalent",
    "inequivalent" or a class count; basis says where it comes from.
    """
    id: str
    kind: str
    expect: object
    basis: str
    args: tuple

    @property
    def family(self):
        """The id without its batch tag and index, e.g. "lm5-eq"."""
        rest = self.id.partition("-")[2]
        stem, _, last = rest.rpartition("-")
        return stem if last.isdigit() else rest

    @property
    def answer_class(self):
        """Timing class: "equiv", "inequiv" or "census"."""
        if self.kind == "census":
            return "census"
        return "equiv" if self.expect == "equivalent" else "inequiv"


# ---------------------------------------------------------------------------
# random local operators

@lru_cache(maxsize=None)
def _units(q):
    return [m for m in range(1, q) if math.gcd(m, q) == 1]


def _numerator(rng, denominator=DENOMINATOR):
    return rng.choice(_units(denominator))


def _turn(rng, denominator=DENOMINATOR):
    return Phase(Fraction(_numerator(rng, denominator), denominator))


def random_monomial(rng, n, d):
    sites = []
    for _ in range(n):
        sigma = list(range(d))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(sigma, [_turn(rng) for _ in range(d)]))
    return LocalOperator(sites)


def random_local_diagonal(rng, state, denominator):
    """state under a random local diagonal unitary, built term by term."""
    diag = [[_turn(rng, denominator) for _ in range(state.d)] for _ in range(state.n)]

    def factor(idx):
        return phase_product(diag[j][a] for j, a in enumerate(idx))

    if isinstance(state, states.MinimalSupportState):
        return states.MinimalSupportState(
            state.n, state.d, state.k,
            {idx: p * factor(idx) for idx, p in state.phases.items()}, check=False)
    return states.SparseState(state.n, state.d,
                              {idx: a * factor(idx) for idx, a in state.terms.items()},
                              scale2=state.scale2)


def random_decoration(rng, base):
    return {idx: Fraction(_numerator(rng), DENOMINATOR)
            for idx in sorted(base.phases)}


def decorate(base, turns):
    return states.with_phases(base, {idx: Phase(t) for idx, t in turns.items()})


# ---------------------------------------------------------------------------
# the rank / cokernel test

@lru_cache(maxsize=None)
def _cokernel(rows, n, d):
    """Integer basis of {c : c^T A = 0} for the support incidence matrix A."""
    a = sympy.Matrix([[1 if row[j] == s else 0 for j in range(n) for s in range(d)]
                      for row in rows])
    basis = []
    for v in a.T.nullspace():
        scale = math.lcm(*(sympy.fraction(x)[1] for x in v))
        basis.append(tuple(int(x * scale) for x in v))
    return tuple(basis)


def decoration_answer(base, turns):
    """Known answer for base versus its decoration, or None if undecided.

    base must carry trivial phases.  See the module docstring for the
    argument.
    """
    rows = tuple(sorted(base.phases))
    basis = _cokernel(rows, base.n, base.d)
    if not basis:
        return "equivalent"
    t = [turns[r] for r in rows]
    for c in basis:
        if sum(ci * ti for ci, ti in zip(c, t)).denominator != 1:
            return "inequivalent"
    return None


# ---------------------------------------------------------------------------
# Butson exponent matrices

def fourier_exponents(d):
    return tuple(tuple(i * j % d for j in range(d)) for i in range(d))


def tensor_exponents(a, qa, b, qb):
    """Exponents of A x B over the common order lcm(qa, qb)."""
    q = math.lcm(qa, qb)
    db = len(b)
    d = len(a) * db
    return tuple(tuple((a[i // db][j // db] * (q // qa) + b[i % db][j % db] * (q // qb)) % q
                       for j in range(d)) for i in range(d)), q


def is_butson_exponents(e, q):
    """Rows pairwise orthogonal.  Exact for q in (2, 3, 4, 6): a nonzero sum
    of such roots lies in Z[i] or Z[w] and so has modulus at least 1."""
    if q not in (2, 3, 4, 6):
        raise ValueError("float orthogonality test is exact only for q in 2, 3, 4, 6")
    for r1, r2 in itertools.combinations(e, 2):
        s = sum(cmath.exp(2j * math.pi * (x - y) / q) for x, y in zip(r1, r2))
        if abs(s) > 0.5:
            return False
    return True


def monomial_invariant(e, q):
    """Row-pair and column-pair difference profiles of an exponent matrix.

    Row scalings shift a row-pair difference vector by a constant, column
    scalings cancel in it, and permutations reorder or swap the pair, so the
    sorted vector up to shift and sign is unchanged by monomial equivalence.
    """
    def profile(rows):
        out = []
        for r1, r2 in itertools.combinations(rows, 2):
            diff = [x - y for x, y in zip(r1, r2)]
            out.append(min(tuple(sorted((sign * x + s) % q for x in diff))
                           for s in range(q) for sign in (1, -1)))
        return tuple(sorted(out))
    return profile(e), profile(tuple(zip(*e)))


def random_monomial_exponents(rng, e, q):
    d = len(e)
    p, c = list(range(d)), list(range(d))
    rng.shuffle(p)
    rng.shuffle(c)
    dr = [rng.randrange(q) for _ in range(d)]
    dc = [rng.randrange(q) for _ in range(d)]
    return tuple(tuple((e[p[i]][c[j]] + dr[i] + dc[j]) % q for j in range(d))
                 for i in range(d))


def to_matrix(e, q):
    return butson.ButsonMatrix([[root_of_unity(q, x) for x in row] for row in e],
                               q, check=False)


@lru_cache(maxsize=None)
def _checked_bh6():
    for e in BH6_CLASSES:
        if not is_butson_exponents(e, 6):
            raise AssertionError("BH6_CLASSES holds a matrix that is not Butson")
    if len({monomial_invariant(e, 6) for e in BH6_CLASSES}) != len(BH6_CLASSES):
        raise AssertionError("the invariant does not separate BH6_CLASSES")
    return BH6_CLASSES


@lru_cache(maxsize=None)
def _f22_image_of_ame44():
    """(F2 x F2)^(x4) applied to the AME(4,4) state, as a minimal-support state.

    F2 x F2 has entries +-1, so every amplitude of the image is an integer
    and is computed exactly here; the image has 16 terms of equal modulus.
    """
    h, q = tensor_exponents(fourier_exponents(2), 2, fourier_exponents(2), 2)
    assert q == 2
    sign = [[(-1) ** x for x in row] for row in h]
    amps = {}
    for idx in states.construct_ame44().phases:
        for out in itertools.product(range(4), repeat=4):
            amps[out] = amps.get(out, 0) + math.prod(sign[o][a] for o, a in zip(out, idx))
    support = {out: a for out, a in amps.items() if a}
    if len(support) != 16 or len({abs(a) for a in support.values()}) != 1:
        raise AssertionError("the F2 x F2 image of AME(4,4) is not minimal support")
    return states.MinimalSupportState(
        4, 4, 2, {out: Phase(Fraction(0 if a > 0 else 1, 2)) for out, a in support.items()})


# ---------------------------------------------------------------------------
# batches

def _lm_ladder(rng, tag):
    """2k < N pairs on the five-party linear family (k = 2, N = 5)."""
    ops = []
    for d, per_answer in ((5, 12), (7, 1)):
        base = states.ame_linear_5(d)
        for i in range(per_answer):
            src = decorate(base, random_decoration(rng, base))
            ops.append(Op("%s-lm%d-eq-%02d" % (tag, d, i), "decide", "equivalent",
                          "construction", (src, random_monomial(rng, 5, d).apply(src))))
        for i in range(per_answer):
            for _ in range(100):
                turns = random_decoration(rng, base)
                if decoration_answer(base, turns) == "inequivalent":
                    break
            else:
                raise AssertionError("no provably inequivalent decoration drawn")
            dst = random_monomial(rng, 5, d).apply(decorate(base, turns))
            ops.append(Op("%s-lm%d-in-%02d" % (tag, d, i), "decide", "inequivalent",
                          "cokernel", (base, dst)))
    return ops


def _ame_ladder(rng, tag):
    """N = 2k pairs plus the five-party phased-versus-linear pairs."""
    ops = []
    base43 = states.construct_ame43()
    for i in range(16):
        turns = random_decoration(rng, base43)
        answer = decoration_answer(base43, turns)
        if answer != "equivalent":
            raise AssertionError("AME(4,3) diagonal system is expected to have full rank")
        dst = random_monomial(rng, 4, 3).apply(decorate(base43, turns))
        ops.append(Op("%s-ame43-eq-%02d" % (tag, i), "decide", answer, "rank",
                      (base43, dst)))
    base44 = states.construct_ame44()
    layered = _f22_image_of_ame44()
    for i in range(32):
        ops.append(Op("%s-ame44-eq-%02d" % (tag, i), "decide", "equivalent",
                      "construction", (base44, random_monomial(rng, 4, 4).apply(layered))))
    for i in range(2):
        src = states.ame64_phi(Fraction(_numerator(rng), DENOMINATOR))
        ops.append(Op("%s-ame64-eq-%02d" % (tag, i), "decide", "equivalent",
                      "construction", (src, random_monomial(rng, 6, 4).apply(src))))
    for i in range(2):
        a = _numerator(rng)
        b = rng.choice([m for m in _units(DENOMINATOR) if m not in (a, DENOMINATOR - a)])
        src = states.ame64_phi(Fraction(a, DENOMINATOR))
        dst = random_monomial(rng, 6, 4).apply(states.ame64_phi(Fraction(b, DENOMINATOR)))
        ops.append(Op("%s-ame64-in-%02d" % (tag, i), "decide", "inequivalent",
                      "paper", (src, dst)))
    for d, count in ((5, 10), (7, 1)):
        phased, linear = states.construct_ame5_phased(d), states.ame_linear_5(d)
        for i in range(count):
            # Local diagonal unitaries keep the LU class and both supports.
            # Their phases are d-th roots: with 1/360 turns every zero test
            # on the d^3-term state runs at conductor lcm(d, 360), and one
            # decision takes about 1.5 s at d = 5 and 27 s at d = 7.
            ops.append(Op("%s-ame5-d%d-in-%02d" % (tag, d, i), "decide", "inequivalent",
                          "paper", (random_local_diagonal(rng, phased, d),
                                    random_local_diagonal(rng, linear, d))))
    return ops


def _bh_census(rng, tag):
    """BH(d,d) census calls plus monomial-equivalence decisions."""
    ops = [Op("%s-census-d%d" % (tag, d), "census", count, "literature", (d,))
           for d, count in CENSUS.items()]

    def pair(name, ea, qa, eb, qb, expect, basis):
        ops.append(Op("%s-%s" % (tag, name), "bh-pair", expect, basis,
                      (to_matrix(random_monomial_exponents(rng, ea, qa), qa),
                       to_matrix(random_monomial_exponents(rng, eb, qb), qb))))

    bh6 = _checked_bh6()
    for i, a in enumerate(list(range(len(bh6))) * 12):
        pair("bh6-eq-%02d" % i, bh6[a], 6, bh6[a], 6, "equivalent", "construction")
    for i, (a, b) in enumerate(list(itertools.combinations(range(len(bh6)), 2)) * 2):
        if rng.random() < 0.5:
            a, b = b, a
        pair("bh6-in-%02d" % i, bh6[a], 6, bh6[b], 6, "inequivalent", "invariant")
    f4 = fourier_exponents(4)
    f22, q22 = tensor_exponents(fourier_exponents(2), 2, fourier_exponents(2), 2)
    f22 = tuple(tuple(x * 4 // q22 for x in row) for row in f22)  # over 4th roots
    f23, _ = tensor_exponents(fourier_exponents(2), 2, fourier_exponents(3), 3)
    for i in range(2):
        pair("f4-f22-in-%02d" % i, f4, 4, f22, 4, "inequivalent", "literature")
        pair("f23-f6-eq-%02d" % i, f23, 6, fourier_exponents(6), 6, "equivalent",
             "literature")
    pair("f4-eq-00", f4, 4, f4, 4, "equivalent", "construction")
    pair("f22-eq-00", f22, 4, f22, 4, "equivalent", "construction")
    pair("f5-eq-00", fourier_exponents(5), 5, fourier_exponents(5), 5, "equivalent",
         "construction")
    return ops


_BATCHES = {"lm-ladder": _lm_ladder, "ame-ladder": _ame_ladder, "bh-census": _bh_census}


def batch(workload, seed, index):
    """Ops of batch `index` of a workload, in a seed-determined order."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    ops = _BATCHES[workload](rng, "b%d" % index)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# answer checks

def _bh_witness_replays(a, b, witness):
    """a[i][j] = dr[i] * b[p[i]][q[j]] * dc[j], in exact turns."""
    p, q, dr, dc = witness
    d = a.d
    return all((dr[i] * b[(p[i], q[j])] * dc[j]).turn == a[(i, j)].turn
               for i in range(d) for j in range(d))


def check(op, result):
    """(outcome, decided, status) for one op's result or raised exception.

    status is "ok"; "missed" for an "inequivalent" answer on a pair that is
    equivalent by its known answer (a wrong verdict that carries no
    certificate to replay); or "broken" for an exception, a witness that
    fails replay, equivalence claimed for a known-inequivalent pair, or a
    wrong census count.
    """
    if isinstance(result, Exception):
        return "error:%s" % type(result).__name__, False, "broken"
    if op.kind == "census":
        return len(result), True, "ok" if len(result) == op.expect else "broken"
    if op.kind == "bh-pair":
        if result is None:
            return "inequivalent", True, "ok" if op.expect == "inequivalent" else "missed"
        ok = op.expect == "equivalent" and _bh_witness_replays(*op.args, result)
        return "equivalent", True, "ok" if ok else "broken"
    outcome = "%s/%s" % (result.verdict, result.reason)
    if result.verdict == "inconclusive":
        return outcome, False, "ok"
    if result.verdict == "equivalent":
        src, dst = op.args
        replayed = states.states_equal_up_to_global_phase(result.witness.apply(src), dst)
        ok = op.expect == "equivalent" and replayed is not None
        return outcome, True, "ok" if ok else "broken"
    return outcome, True, "ok" if op.expect == "inequivalent" else "missed"
