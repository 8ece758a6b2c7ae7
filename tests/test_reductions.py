import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ameslocc import reductions, states
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import Amp, Phase, root_of_unity
from ameslocc.reductions import (ReductionError, _conjugated_rho_prime, _echelon, _lu_reading,
                                 _nullspace, _valid_tuples, build_u4_u5, lu_witness,
                                 verify_ame5_nonequivalence, verify_rho345_lemma)
from ameslocc.states import (SparseState, ame_linear_5, construct_ame5_phased,
                             construct_linear)


def test_triangular_exponents_d3():
    pair = build_u4_u5(3)
    assert pair.w == ((0, 0, 2), (2, 0, 0), (0, 2, 0))
    assert pair.v == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_triangular_exponents_d5_doubled():
    # the d = 5 reference tables list exponents of a different primitive
    # root; doubling ours modulo 5 reproduces them entry by entry
    pair = build_u4_u5(5)
    printed_w = ((0, 0, 4, 2, 4), (4, 0, 0, 4, 2), (2, 4, 0, 0, 4),
                 (4, 2, 4, 0, 0), (0, 4, 2, 4, 0))
    printed_v = ((0, 0, 1, 3, 1), (1, 3, 1, 0, 0), (1, 0, 0, 1, 3),
                 (0, 1, 3, 1, 0), (3, 1, 0, 0, 1))
    assert tuple(tuple(2 * x % 5 for x in row) for row in pair.w) == printed_w
    assert tuple(tuple(2 * x % 5 for x in row) for row in pair.v) == printed_v


def test_triangular_needs_odd_dimension():
    with pytest.raises(ReductionError):
        build_u4_u5(4)
    with pytest.raises(ReductionError):
        build_u4_u5(1)


def test_closed_form_matches_recursion():
    # build_u4_u5 cross-checks its recursion against the closed forms and
    # raises on any mismatch, so constructing is the assertion
    for d in range(3, 23, 2):
        pair = build_u4_u5(d)
        assert len(pair.w) == d and len(pair.v) == d


def test_rho345_lemma_small_dimension():
    assert verify_rho345_lemma(3)


@pytest.mark.parametrize("change", ["drop", "alter"])
def test_rho345_lemma_rejects_a_changed_entry(monkeypatch, change):
    orig = reductions._conjugated_rho_prime

    def changed(d, u4, u5):
        got = orig(d, u4, u5)
        key = min(got)
        if change == "drop":
            del got[key]
        else:
            got[key] = got[key] + got[key]
        return got

    monkeypatch.setattr(reductions, "_conjugated_rho_prime", changed)
    assert not verify_rho345_lemma(3)


def test_five_party_nonequivalence_report():
    report = verify_ame5_nonequivalence(5)
    assert report["all_passed"] and report["verdict"] == "inequivalent"
    names = [step["step"] for step in report["steps"]]
    assert "rho345-lemma" in names
    assert all(step["passed"] for step in report["steps"])


def test_five_party_pipeline_input_validation():
    with pytest.raises(ReductionError):
        verify_ame5_nonequivalence(4)  # composite dimension
    with pytest.raises(ReductionError):
        verify_ame5_nonequivalence(3)  # too small: both families coincide


def conjugated_rho_prime_oracle(d):
    """(Id x U4 x U5) rho' (Id x U4 x U5)^dagger from its definition: one Amp
    term per (row, column) product of the transformed columns of the d^2
    ensemble vectors |i+j, i+2j, i+3j>, each with weight 1/d^2 * 1/d^2."""
    pair = build_u4_u5(d)
    u4, u5 = pair.u4(), pair.u5()
    out = {}
    for i in range(d):
        for j in range(d):
            s, a, b = (i + j) % d, (i + 2 * j) % d, (i + 3 * j) % d
            col = [((s, m, kk), u4[a][m] * u5[b][kk])
                   for m in range(d) for kk in range(d)]
            for ki, pi in col:
                for kj, pj in col:
                    term = Amp(terms={(pi / pj).turn: Fraction(1, d ** 4)})
                    out[(ki, kj)] = out[(ki, kj)] + term if (ki, kj) in out else term
    return {key: amp for key, amp in out.items() if not amp.is_zero()}


@pytest.mark.parametrize("d", [3, 5])
def test_conjugated_rho_prime_matches_definition(d):
    pair = build_u4_u5(d)
    got = _conjugated_rho_prime(d, pair.w, pair.v)
    want = conjugated_rho_prime_oracle(d)
    assert got.keys() == want.keys()
    assert len(got) == d ** 4
    assert all(got[key].equals(amp) for key, amp in want.items())


def test_rho345_lemma_composite_dimension():
    # at d = 9, counts such as w^0 + w^3 + w^6 vanish without being uniform
    assert verify_rho345_lemma(9)


def test_rho345_lemma_zero_test_count(monkeypatch):
    # one exact zero test per distinct count vector, not per (row, column)
    # key: well under the d^5 keys the conjugation touches
    calls = []
    orig = Amp.is_zero

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(Amp, "is_zero", counting)
    assert verify_rho345_lemma(7)
    assert len(calls) < 7 ** 5


def count_loop_rho_prime(d, w, v):
    """The conjugated reduction by one integer count per (row, column,
    exponent): the loop the packed histograms replace, kept as a reference."""
    dd = d * d
    entries = {}
    out = {}
    for s in range(d):
        counts = [[0] * d for _ in range(dd * dd)]
        for j in range(d):
            a, b = (s + j) % d, (s + 2 * j) % d
            col = [wm + vk for wm in w[a] for vk in v[b]]
            for x, ex in enumerate(col):
                for y, ey in enumerate(col):
                    counts[x * dd + y][(ex - ey) % d] += 1
        sites = [(s, m, kk) for m in range(d) for kk in range(d)]
        for idx, vec in enumerate(map(tuple, counts)):
            if vec not in entries:
                amp = Amp.from_counts(d, {e: c for e, c in enumerate(vec) if c}, d ** 4)
                entries[vec] = None if amp.is_zero() else amp
            if entries[vec] is not None:
                out[(sites[idx // dd], sites[idx % dd])] = entries[vec]
    return out


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_packed_histograms_match_count_loop(d):
    pair = build_u4_u5(d)
    got = _conjugated_rho_prime(d, pair.w, pair.v)
    want = count_loop_rho_prime(d, pair.w, pair.v)
    assert list(got) == list(want)
    assert all(got[key].form() == amp.form() for key, amp in want.items())


def certificate_report(d):
    return {"d": d, "all_passed": True, "verdict": "inequivalent", "steps": [
        {"step": "rho345-lemma",
         "claim": "Id x U4 x U5 conjugates the diagonal 3-party reduction "
                  "of the linear family onto the phased family's reduction",
         "passed": True},
        {"step": "support-count",
         "claim": "monomial outer factors preserve term counts, so an "
                  "equivalence would give the phased state support d^4, but "
                  "it has d^3 terms",
         "passed": True, "phased_support": d ** 3, "linear_support": d ** 2,
         "forced_support": d ** 4}]}


@pytest.mark.parametrize("d", [5, 7, 11])
def test_five_party_report_is_pinned(d):
    assert verify_ame5_nonequivalence(d) == certificate_report(d)


def test_five_party_report_steps_are_copied_per_call():
    # the report is built once per d: a caller's edits to its steps list
    # or to one step must not reach the next call's report
    report = verify_ame5_nonequivalence(5)
    report["steps"].append({"step": "extra", "passed": False})
    report["steps"][0]["passed"] = False
    del report["steps"][1]["forced_support"]
    report["steps"].reverse()
    assert verify_ame5_nonequivalence(5) == certificate_report(5)


def test_rho345_lemma_rejects_an_entry_shared_with_another_key(monkeypatch):
    # the replaced entry is an object the lemma already compared, at an
    # earlier key with a different value, so only the pair of objects at
    # the changed key shows the difference
    orig = reductions._conjugated_rho_prime

    def changed(d, w, v):
        got = orig(d, w, v)
        keys = list(got)
        last = got[keys[-1]]
        other = next(got[key] for key in keys if not got[key].equals(last))
        got[keys[-1]] = other
        return got

    monkeypatch.setattr(reductions, "_conjugated_rho_prime", changed)
    assert not verify_rho345_lemma(7)


def test_packed_histograms_need_byte_counts():
    with pytest.raises(ReductionError):
        _conjugated_rho_prime(257, (), ())


@pytest.mark.parametrize("verify", [verify_rho345_lemma, verify_ame5_nonequivalence])
def test_large_d_is_refused_before_the_phased_state_is_built(monkeypatch, verify):
    # the cost grows as about d^7 (d = 29 took about 20 s), and the phased
    # state has d^3 terms, about 1.7e7 at d = 257: the cap is checked first
    def build(d):
        raise AssertionError("built the phased state at d = %d" % d)

    monkeypatch.setattr(reductions, "construct_ame5_phased", build)
    for d in (25, 29, 41, 257):
        with pytest.raises(ReductionError, match="d <= 23"):
            verify(d)


# ---------------------------------------------------------------------------
# The LU-invariant screen, against enumeration

# pi_p for I_pi's pattern (0, 2, 5, 1, 3): s_j copies r_{pi_p(j)} at party p
COPIES = [list(itertools.permutations(range(3)))[i] for i in (0, 2, 5, 1, 3)]


def enumerate_valid_tuples(rows):
    """Every (r0, r1, r2) of support rows whose pattern copies are support
    rows, by enumeration.  The copy s0 reads r2 at party 2 alone, so r2's
    symbol there is the one completing s0's other four to a row."""
    assert [c[0] for c in COPIES] == [0, 1, 2, 0, 1]
    rows = set(rows)
    completes = {}
    for row in rows:
        completes.setdefault(row[:2] + row[3:], set()).add(row[2])
    by_symbol = {}
    for row in rows:
        by_symbol.setdefault(row[2], []).append(row)
    out = []
    for r0, r1 in itertools.product(rows, repeat=2):
        for c in completes.get((r0[0], r1[1], r0[3], r1[4]), ()):
            for r2 in by_symbol[c]:
                r = (r0, r1, r2)
                if all(tuple(r[copy[j]][p] for p, copy in enumerate(COPIES)) in rows
                       for j in range(3)):
                    out.append(r)
    return out


def relabel(s, perm):
    sp = s.to_sparse()
    return SparseState(5, sp.d, {tuple(row[q] for q in perm): a for row, a in sp.terms.items()},
                       scale2=sp.scale2)


def _lm_image(s, seed):
    rng = random.Random(seed)
    sites = []
    for _ in range(s.n):
        sigma = list(range(s.d))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(sigma, [root_of_unity(360, rng.randrange(360))
                                                   for _ in range(s.d)]))
    return LocalOperator(sites).apply(s)


@pytest.mark.parametrize("make", [
    lambda: ame_linear_5(5), lambda: ame_linear_5(7),
    lambda: construct_linear(5, [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]]),
    lambda: _lm_image(construct_linear(5, [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]]), 11)],
    ids=["linear-5", "linear-7", "second-support-5", "lm-image-5"])
def test_minimal_supports_have_only_diagonal_tuples(make):
    s = make()
    assert s.k == 2
    tuples = enumerate_valid_tuples(s.phases)
    assert len(tuples) == s.d ** 2
    assert all(r0 == r1 == r2 for r0, r1, r2 in tuples)


@pytest.mark.parametrize("perm", [(0, 1, 2, 3, 4), (3, 0, 4, 1, 2), (4, 2, 1, 0, 3)])
def test_screen_counts_the_enumerated_tuples(perm):
    s = relabel(construct_ame5_phased(5), perm)
    enumerated = set(enumerate_valid_tuples(s.terms))
    tuples = _valid_tuples(s._support)
    assert 5 ** tuples.dim == len(enumerated) == 5 ** 5
    # the head's tuples and the rest list every tuple of V but r0's once
    listed = [tuple(tuples.rows[r] for r in t[:3])
              for t in itertools.chain(tuples.first, tuples.rest())]
    assert len(set(listed)) == len(listed)
    assert set(listed) == enumerated - {(tuples.rows[0],) * 3}
    details, _, exact = lu_witness(ame_linear_5(5), s)
    assert details["valid_tuples"] == details["bound"] == 5 ** 5 and exact
    assert tuple(map(tuple, details["witness"])) in enumerated


def test_screen_needs_prime_d_and_five_parties():
    assert _valid_tuples(construct_ame5_phased(4)._support) is None
    six = SparseState(6, 5, {row + (0,): a for row, a in construct_ame5_phased(5).terms.items()},
                      scale2=125)
    assert _valid_tuples(six._support) is None
    assert lu_witness(ame_linear_5(5), SparseState(5, 5, {}, scale2=1)) is None


def test_screen_reads_no_multi_root_amplitude():
    # (1 + i - 1 + i) / 2 = i has the modulus of every other term, but its
    # counts name four roots of unity, so the screen reads no turn for it
    s = construct_ame5_phased(5)
    terms = dict(s.terms)
    terms[next(iter(terms))] = Amp.from_counts(4, {0: 1, 1: 1, 2: 1, 3: -1}, 2)
    assert lu_witness(ame_linear_5(5), SparseState(5, 5, terms, scale2=125)) is None


def test_screen_searches_the_rest_of_v():
    # zero turns everywhere give E = 0 on all of V: no witness.  One
    # nonzero turn on a row that no basis vector or pairwise sum reads is
    # found only in the rest of V
    phased = construct_ame5_phased(5)
    flat = {row: Amp.one() for row in phased.terms}
    assert lu_witness(ame_linear_5(5), SparseState(5, 5, flat, scale2=125)) is None
    tuples = _valid_tuples(phased._support)
    read = {r for terms in tuples.first for r in terms}
    marked = next(row for r, row in enumerate(tuples.rows) if r not in read)
    flat[marked] = Amp.from_phase(root_of_unity(5, 1))
    details, tried, _ = lu_witness(ame_linear_5(5), SparseState(5, 5, flat, scale2=125))
    assert tried > len(tuples.first) and details["witness_turn"][1] == 5
    rows = [tuple(r) for r in details["witness"]]
    copies = [tuple(rows[c[j]][p] for p, c in enumerate(COPIES)) for j in range(3)]
    assert marked in rows + copies


@pytest.mark.parametrize("d", [5, 7, 13])
def test_first_tuples_match_a_coordinate_by_coordinate_recomputation(d):
    # V's basis from its defining equations, each tuple's rows summed party
    # by party from the generators, and each row found by a list search
    for perm in [(0, 1, 2, 3, 4), (3, 0, 4, 1, 2)]:
        s = relabel(construct_ame5_phased(d), perm)
        tuples = _valid_tuples(s._support)
        rows = list(s.terms)
        base = rows[0]
        gens = [g for _, g in _echelon([[a - b for a, b in zip(row, base)] for row in rows], d)]
        checks = _nullspace(gens, 5, d)
        system = [[sum(h[p] * g[p] for p in range(5) if COPIES[p][j] == i)
                   for i in range(3) for g in gens] for j in range(3) for h in checks]
        basis = _nullspace(system, 9, d)
        vectors = basis + [[a + b for a, b in zip(u, w)]
                           for u, w in itertools.combinations(basis, 2)]
        expected = []
        for v in vectors:
            r = [tuple((base[p] + sum(v[3 * i + c] * gens[c][p] for c in range(3))) % d
                       for p in range(5)) for i in range(3)]
            s_rows = [tuple(r[COPIES[p][j]][p] for p in range(5)) for j in range(3)]
            expected.append(tuple(rows.index(row) for row in r + s_rows))
        assert (tuples.rank, tuples.dim) == (3, 5)
        assert tuples.first == expected


def test_term_turns_are_the_polar_turns():
    # each term's turn, read from its one (exponent, count) pair and lifted
    # to the lcm of the terms' q, is its polar turn: a negative count adds
    # half a turn
    rng = random.Random(3)
    terms = {row: Amp.from_phase(root_of_unity(rng.choice([1, 2, 5, 10]), rng.randrange(10)),
                                 rng.choice([Fraction(2, 3), Fraction(-2, 3)]))
             for row in construct_ame5_phased(5).terms}
    assert len({a.q for a in terms.values()}) == 4
    q, turn, m2 = reductions._term_turns(SparseState(5, 5, terms, scale2=1))
    assert (q, m2) == (20, Fraction(4, 9))
    for r, a in enumerate(terms.values()):
        phase = a.polar()[1]
        assert Fraction(turn(r), q) % 1 == Fraction(phase.num, phase.den) % 1


def coset_state(p, gens, shift, phases, coeff, real, scale):
    """Equal-modulus terms coeff * w^phase on the coset shift + C of the
    code C that gens span over GF(p); real puts a real turn on one term."""
    rank = len(gens)
    rows = sorted({tuple((shift[q] + sum(c * g[q] for c, g in zip(x, gens))) % p
                         for q in range(5))
                   for x in itertools.product(range(p), repeat=rank)})
    rng = random.Random(phases)
    terms = {row: Amp.from_phase(root_of_unity(p, rng.randrange(p)), coeff * rng.choice([1, -1]))
             for row in rows}
    if real:
        terms[rows[-1]] = Amp.from_phase(Phase(0.1234), abs(coeff))
    return SparseState(5, p, terms, scale2=scale * coeff * coeff * len(rows))


@st.composite
def coset_states(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    rank = draw(st.integers(2, 3))
    gens = [draw(st.lists(st.integers(0, p - 1), min_size=5, max_size=5))
            for _ in range(rank)]
    zero = draw(st.none() | st.integers(0, 4))  # a zero coordinate
    if zero is not None:
        for g in gens:
            g[zero] = 0
    unit = draw(st.none() | st.integers(0, 4))  # a weight-1 word
    if unit is not None:
        gens[0] = [int(q == unit) for q in range(5)]
    shift = draw(st.lists(st.integers(0, p - 1), min_size=5, max_size=5))
    return (p, gens, shift, draw(st.integers(0, 2 ** 16)),
            draw(st.sampled_from([1, 2, Fraction(1, 3)])), draw(st.booleans()),
            draw(st.sampled_from([1, 2])))


# _lu_reading reads only the shape and exactness of the minimal side, and
# no minimal-support AME(5,3) state exists
def shape(p):
    return types.SimpleNamespace(n=5, k=2, d=p, is_exact=True)


@settings(max_examples=80, deadline=None)
@given(coset_states())
@example((5, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]], [0] * 5, 0, 1, False, 1))
@example((5, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]], [0] * 5, 0, 1, False, 2))
@example((7, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]], [1] * 5, 3, 2, True, 1))
@example((5, [[2, 3, 1, 0, 0], [2, 1, 2, 0, 3]], [0, 1, 2, 0, 1], 5, 1, False, 1))
@example((3, [[2, 0, 0, 2, 1], [0, 2, 0, 0, 0], [1, 0, 1, 0, 1]], [0] * 5, 11, 1, False, 1))
def test_critical_reading_is_one_party_uniformity(case):
    # wherever the screen reads a coset state, its criticality, read from
    # the code and the modulus, is 1-uniformity read from partial traces;
    # a code with a weight-1 word is never read, since each tuple of V
    # then copies its rows in another order (E = 0)
    p, gens, *_ = case
    if len(_echelon(gens, p)) != len(gens):
        return
    s = coset_state(*case)
    reading = _lu_reading(shape(p), s)
    tuples = _valid_tuples(s._support)
    if tuples.weight_one:
        assert reading is None
        if tuples.dim <= 3 * tuples.rank - 4:
            assert all(sorted(t[:3]) == sorted(t[3:])
                       for t in itertools.chain(tuples.first, tuples.rest()))
    elif reading is not None:
        assert reading.critical == states.is_k_uniform(s, 1)
