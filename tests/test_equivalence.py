import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ameslocc.butson import fourier, tensor_butson
from ameslocc.designs import check_oa
from ameslocc.equivalence import (DEFAULT_MAX_NODES, EquivalenceError,
                                  _butson_layer_witnesses, _i_s_choices,
                                  _iter_support_sigmas, _read_minimal, _row_plan,
                                  _w_table,
                                  automorphisms, butson_match, compute_w, cond_butson,
                                  cond_monomial, decide_slocc, family_classes,
                                  lm_match, lm_automorphism_sigmas)
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc import states
from ameslocc.phases import ONE, Amp, Phase, numerator_phase, root_of_unity, turn_numerators
from ameslocc.states import (MinimalSupportState, SparseState, StateError, ame64_phi,
                             ame_linear_5, construct_ame43, construct_ame44,
                             construct_ame5_phased, construct_ame64,
                             construct_ghz, construct_linear,
                             states_equal_up_to_global_phase, with_phases)


def random_monomial(n, d, rng, den=None):
    """Random per-site permutations with den-th-root diagonals (2d-th roots
    by default)."""
    den = den or 2 * d
    sites = []
    for _ in range(n):
        sigma = list(range(d))
        rng.shuffle(sigma)
        diag = [root_of_unity(den, rng.randrange(den)) for _ in range(d)]
        sites.append(SiteOperator.monomial(sigma, diag))
    return LocalOperator(sites)


def test_self_equivalence():
    s = construct_ame43()
    cert = lm_match(s, s)
    assert cert.equivalent and cert.exact
    # the identity-first ordering should land on the identity witness
    assert all(site.sigma == (0, 1, 2) for site in cert.witness.sites)


def test_monomial_image_recovered():
    rng = random.Random(5)
    s = ame_linear_5(5)
    for _ in range(5):
        op = random_monomial(5, 5, rng)
        cert = lm_match(s, op.apply(s))
        assert cert.equivalent
        replay = cert.witness.apply(s)
        assert states_equal_up_to_global_phase(replay, op.apply(s)) is not None


@pytest.mark.parametrize("make", [construct_ame44, lambda: ame_linear_5(5)],
                         ids=["ame44", "ame-linear-5-5"])
def test_replay_rejects_a_wrong_diagonal(monkeypatch, make):
    # the replay reads the witness's own phases on integer turns: one
    # diagonal entry off by 1/360 turns a solvable pair into a failed
    # replay, at N = 2k (AME(4,4)) and at 2k < N (the five-party family)
    from ameslocc import equivalence
    s = make()
    dst = random_monomial(s.n, s.d, random.Random(8), den=360).apply(s)
    solve = equivalence.solve_turn_system

    def shifted(*args, **kwargs):
        theta = solve(*args, **kwargs)
        if theta is None:
            return None
        q, values = theta
        m = math.lcm(q, 360)  # values over m, entry 5 one 1/360 turn on
        values = [v * (m // q) for v in values]
        values[5] = (values[5] + m // 360) % m
        return m, values

    assert lm_match(s, dst).equivalent
    monkeypatch.setattr(equivalence, "solve_turn_system", shifted)
    with pytest.raises(AssertionError, match="^diagonal solution failed replay$"):
        lm_match(s, dst)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_float_witness_failing_replay_is_inconclusive(seed):
    # RS[7,3] with a 0.1-turn row against a 1/360 local monomial image of
    # itself: the solve reads the float turns exactly and passes the
    # cokernel test within the tolerance, yet one row of the witness misses
    # by more than it, so no verdict is certified
    rs = construct_linear(7, [[1, a, a * a % 7] for a in range(7)])
    src = with_phases(rs, {(0,) * 7: Phase(0.1)})
    rng = random.Random(seed)
    sites = []
    for _ in range(7):
        sig = list(range(7))
        rng.shuffle(sig)
        sites.append(SiteOperator.monomial(
            sig, [root_of_unity(360, rng.randrange(360)) for _ in range(7)]))
    cert = decide_slocc(src, LocalOperator(sites).apply(src))
    assert (cert.verdict, cert.reason) == ("inconclusive", "float-witness-failed-replay")
    assert not cert.exact and cert.stats["solves"] >= 1


def test_budget_gives_inconclusive():
    s = construct_ame44()
    cert = lm_match(s, s, max_nodes=1)
    assert (cert.verdict, cert.reason) == ("inconclusive", "search-budget-exhausted")


def test_shape_mismatch_raises():
    with pytest.raises(EquivalenceError):
        lm_match(construct_ame43(), construct_ame44())


@pytest.mark.parametrize("call", [lambda s: lm_match(s, s), lambda s: butson_match(s, s),
                                  automorphisms, lm_automorphism_sigmas],
                         ids=["lm_match", "butson_match", "automorphisms",
                              "lm_automorphism_sigmas"])
def test_search_entry_points_refuse_k0_states(call):
    # a one-term (product) state reads as a k = 0 minimal state, whose one
    # row maps one symbol per site and leaves the permutations incomplete
    s = SparseState(3, 2, {(0, 1, 0): Amp.one()}, scale2=1).as_minimal()
    assert s.k == 0
    with pytest.raises(EquivalenceError, match="k >= 1"):
        call(s)


def test_w_statistic_values():
    base = construct_ame64()
    alpha = root_of_unity(8, 1)
    s = with_phases(base, {(0,) * 6: alpha})
    # the product over the 16 rows with symbol 0 at both marked sites
    assert compute_w(s, (0, 1), (0, 0)).turn == alpha.turn
    assert compute_w(s, (0, 1), (1, 0)) == ONE


def test_conditions_on_decorated_family():
    base = construct_ame64()
    a = with_phases(base, {(0,) * 6: root_of_unity(8, 1)})
    b = with_phases(base, {(0,) * 6: root_of_unity(8, 3)})
    ok, where = cond_monomial(a, b)
    assert not ok and where is not None
    assert cond_monomial(a, a)[0]
    assert not cond_butson(a, b)[0]
    assert not cond_butson(a, a)[0]  # per-state condition fails once alpha != 1
    assert cond_butson(base, base)[0]


def test_conjugate_decorations_have_no_monomial_witness():
    base = construct_ame64()
    a = with_phases(base, {(0,) * 6: Phase(Fraction(1, 8))})
    b = with_phases(base, {(0,) * 6: Phase(Fraction(7, 8))})
    cert = lm_match(a, b)
    assert cert.verdict == "inequivalent"
    assert cert.reason == "search-exhausted"


@settings(max_examples=3, deadline=None)
@given(t=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1))
@example(t=1, seed=7)
def test_lm_match_recovers_ame64_monomial_images(t, seed):
    # 1/360-turn diagonals are not d-th roots of unity, so the W-ratio
    # test cond_monomial rejects these images; the complete search must not
    s = ame64_phi(Fraction(t, 16))
    target = random_monomial(6, 4, random.Random(seed), den=360).apply(s)
    cert = lm_match(s, target)
    assert cert.verdict == "equivalent" and cert.reason == "lm-witness"
    assert states_equal_up_to_global_phase(
        cert.witness.apply(s), target) is not None


@settings(max_examples=3, deadline=None)
@given(t=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1))
@example(t=1, seed=7)
def test_decide_slocc_recovers_ame64_monomial_images(t, seed):
    # at N = 2k the monomial form is ruled out only by the complete search,
    # so no W-ratio test may turn these images into inequivalent verdicts
    s = ame64_phi(Fraction(t, 16))
    target = random_monomial(6, 4, random.Random(seed), den=360).apply(s)
    cert = decide_slocc(s, target)
    assert cert.verdict == "equivalent"
    assert states_equal_up_to_global_phase(
        cert.witness.apply(s), target) is not None


RS73 = construct_linear(7, [[1, a, a * a % 7] for a in range(7)])


def rs73_phi(turn):
    """RS[7,3] with its all-zero row at the given phase."""
    return with_phases(RS73, {(0,) * 7: Phase(turn)})


# the undecorated states find a witness at their first sigma, the
# decorated ones after about a hundred (AME(6,4)) or a thousand (RS[7,3])
K3_LIBRARY = st.one_of(st.just(construct_ame64()), st.just(RS73),
                       st.integers(0, 15).map(lambda t: ame64_phi(Fraction(t, 16))),
                       st.integers(0, 15).map(lambda t: rs73_phi(Fraction(t, 16))))


@settings(max_examples=3, deadline=None)
@given(s=K3_LIBRARY, recorded=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(s=construct_ame64(), recorded=False, seed=7)
@example(s=construct_ame64(), recorded=True, seed=7)
@example(s=ame64_phi(Fraction(1, 16)), recorded=False, seed=7)
@example(s=ame64_phi(Fraction(1, 16)), recorded=True, seed=7)
@example(s=RS73, recorded=False, seed=7)
@example(s=RS73, recorded=True, seed=7)
@example(s=rs73_phi(Fraction(1, 16)), recorded=False, seed=7)
@example(s=rs73_phi(Fraction(1, 16)), recorded=True, seed=7)
def test_decide_slocc_recovers_monomial_images_of_k3_library_states(s, recorded, seed):
    # every library minimal state with k >= 3 and their decorations,
    # searched from scratch, where a search past its first sigma finds the
    # support's automorphism group, and with that group recorded, which
    # the search then walks as a coset
    plan = _row_plan(frozenset(s.phases), s.k)
    if recorded and plan.group is None:
        list(_iter_support_sigmas(s, s, DEFAULT_MAX_NODES))
    elif not recorded:
        _row_plan.cache_clear()
    assert (_row_plan(frozenset(s.phases), s.k).group is not None) == recorded
    target = random_monomial(s.n, s.d, random.Random(seed), den=360).apply(s)
    cert = decide_slocc(s, target)
    assert cert.verdict == "equivalent"
    assert states_equal_up_to_global_phase(
        cert.witness.apply(s), target) is not None


W_STATES = [("ame64", construct_ame64()), ("ame64-phi-1/16", ame64_phi(Fraction(1, 16))),
            ("rs73", RS73)]


@pytest.mark.parametrize("s", [s for _, s in W_STATES] + [
    random_monomial(6, 4, random.Random(5), den=360).apply(s) for _, s in W_STATES[:2]],
    ids=[name for name, _ in W_STATES] + [name + "-image" for name, _ in W_STATES[:2]])
def test_w_tables_match_compute_w(s):
    # cond_butson reads each table from one pass over the support's turn
    # numerators; the 1/360 images give the cells of one table distinct phases
    q, turns = turn_numerators(s.phases.values())
    turns = dict(zip(s.phases, turns))
    for i, S in _i_s_choices(s):
        table = _w_table(turns, s.d, (i,) + S)
        assert list(table) == [(ell,) + I for ell in range(s.d)
                               for I in itertools.product(range(s.d), repeat=len(S))]
        for cell, w in table.items():
            assert numerator_phase(w, q) == compute_w(s, (i,) + S, cell)


def phase_w_table(s, i, S):
    """A W table as phase products, one per cell, as compute_w takes them."""
    return {cell: compute_w(s, (i,) + S, cell)
            for cell in itertools.product(range(s.d), repeat=1 + len(S))}


def phases_constant(phases):
    if all(p.is_exact for p in phases):
        return len({p.turn for p in phases}) <= 1
    return all(p.close_to(phases[0]) for p in phases[1:])


def reference_cond_butson(src, dst):
    """cond_butson on Phase ratios of phase-product W tables."""
    for state, label in ((src, "src"), (dst, "dst")):
        for i, S in _i_s_choices(state):
            w = phase_w_table(state, i, S)
            for ell, ell2 in itertools.combinations(range(state.d), 2):
                if not phases_constant([w[(ell,) + I] / w[(ell2,) + I] for I in itertools.product(
                        range(state.d), repeat=len(S))]):
                    return False, (label, i, S, ell, ell2)
    return True, None


def reference_cond_monomial(src, dst):
    """cond_monomial on Phase ratios of phase-product W tables."""
    d = src.d
    perms = list(itertools.permutations(range(d)))
    for i, S in _i_s_choices(src):
        wsrc, wdst = phase_w_table(src, i, S), phase_w_table(dst, i, S)
        tuples = list(itertools.product(range(d), repeat=len(S)))
        if not any(all(phases_constant([wdst[(ell,) + I] / wsrc[(si[ell],) + tuple(
                p[x] for p, x in zip(sS, I))] for I in tuples]) for ell in range(d))
                   for si in perms for sS in itertools.product(perms, repeat=len(S))):
            return False, (i, S)
    return True, None


W_LIBRARY = W_STATES + [("ame64-phi-3/16", ame64_phi(Fraction(3, 16))),
                        ("ame64-real-turn", ame64_phi(0.1)),
                        ("ame64-image", random_monomial(6, 4, random.Random(5), den=360).apply(
                            ame64_phi(Fraction(1, 16))))]


@pytest.mark.parametrize("a, b", [(a, b) for a in range(len(W_LIBRARY)) for b in range(len(W_LIBRARY))
                                  if W_LIBRARY[a][1].d == W_LIBRARY[b][1].d and a <= b])
def test_w_conditions_match_phase_products(a, b):
    # the integer W tables give the verdicts and failing cells that phase
    # products give; cond_monomial is checked at d = 4 only, where it tries
    # 24^2 permutation pairs per (i, S)
    src, dst = W_LIBRARY[a][1], W_LIBRARY[b][1]
    assert cond_butson(src, dst) == reference_cond_butson(src, dst)
    if src.d == 4:
        assert cond_monomial(src, dst) == reference_cond_monomial(src, dst)


def test_decide_slocc_ame64_inequivalence_excludes_both_forms():
    s = ame64_phi(Fraction(1, 16))
    target = random_monomial(6, 4, random.Random(2), den=360).apply(
        ame64_phi(Fraction(3, 16)))
    cert = decide_slocc(s, target)
    assert cert.verdict == "inequivalent"
    assert cert.reason == "lm-exhausted-butson-condition-violated"
    assert cert.details["lm_reason"] == "search-exhausted"
    ok, where = cond_butson(s, target)
    assert not ok and cert.details["butson_condition"] == where


def test_butson_match_budget_is_inconclusive():
    # an unfinished monomial search never counts as excluding that form
    cert = butson_match(ame64_phi(Fraction(1, 16)), ame64_phi(Fraction(3, 16)),
                        max_nodes=50)
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason


def test_decide_slocc_minimal_inputs_take_no_partial_trace(monkeypatch):
    calls = []
    orig = states.reduced_density

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(states, "reduced_density", counted)
    s = ame_linear_5(5)
    assert decide_slocc(s, random_monomial(5, 5, random.Random(4)).apply(s)).equivalent
    assert decide_slocc(construct_ame43(), construct_ame43()).equivalent
    assert decide_slocc(construct_ghz(4, 3), construct_ame43()).reason == \
        "different-uniformity"
    assert calls == []


def test_decide_slocc_uniformity_shortcut_matches_partial_traces():
    # the d^k-term shortcut applies only when 2k <= N and all moduli agree;
    # taking k = 2 from either 4-term state below would wrongly report
    # different-uniformity against a 1-uniform GHZ state
    parity = MinimalSupportState(3, 2, 2, {r: ONE for r in
                                           [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]})
    one, two = (Amp(terms={Fraction(0): Fraction(m)}) for m in (1, 2))
    unequal = SparseState(4, 2, {(0, 0, 0, 0): one, (1, 1, 1, 1): one,
                                 (0, 0, 1, 1): two, (1, 1, 0, 0): two}, scale2=10)
    assert states.uniformity(parity) == states.uniformity(unequal) == 1
    for a, b in [(construct_ghz(3, 2), parity), (parity, parity),
                 (unequal, construct_ghz(4, 2)), (unequal, unequal)]:
        cert = decide_slocc(a, b)
        assert (cert.verdict, cert.reason) == \
            ("inconclusive", "no-complete-procedure-for-this-pair")


def test_decide_slocc_validates_minimal_inputs_without_sparse_copies(monkeypatch):
    calls = []
    orig = SparseState.as_minimal
    monkeypatch.setattr(SparseState, "as_minimal",
                        lambda self, *a, **kw: calls.append(self) or orig(self, *a, **kw))
    s = ame_linear_5(5)
    assert decide_slocc(s, random_monomial(5, 5, random.Random(4)).apply(s)).equivalent
    assert decide_slocc(construct_ame43(), construct_ame43()).equivalent
    assert calls == []
    monkeypatch.undo()
    # 1-uniform, and not index-unity, so it must not be read as k = 2
    bad = swapped_ame43()
    for a, b in [(bad, construct_ame43()), (construct_ame43(), bad), (bad, bad)]:
        cert = decide_slocc(a, b)
        want = decide_slocc(a.to_sparse(), b.to_sparse())
        assert (cert.verdict, cert.reason, cert.details) == \
            (want.verdict, want.reason, want.details)
    assert decide_slocc(bad, construct_ame43()).details == {"src": 1, "dst": 2}


def swapped_ame43():
    """AME(4,3) with the last symbols of two rows swapped, built unchecked:
    d^k rows, not index-unity."""
    rows = sorted(construct_ame43().phases)
    rows[0], rows[1] = (0, 0, 0, 1), (0, 1, 1, 0)
    return MinimalSupportState(4, 3, 2, {r: ONE for r in rows}, check=False)


def swapped_last_symbols(s):
    """s, built unchecked, with the last symbols of its first row and of the
    next row that differs from it there swapped."""
    rows = sorted(s.phases)
    a, b = rows[0], next(r for r in rows if r[-1] != rows[0][-1])
    phases = dict(s.phases)
    phases[a[:-1] + b[-1:]], phases[b[:-1] + a[-1:]] = phases.pop(a), phases.pop(b)
    return MinimalSupportState(s.n, s.d, s.k, phases, check=False)


def reed_solomon_7(points, k):
    """The RS code of dimension k over GF(7) on the points, in their order:
    an index-unity support."""
    return construct_linear(7, [[x ** i % 7 for i in range(k)] for x in points])


def unreachable_pair(n):
    """Two index-unity supports over GF(7) that no local symbol permutation
    maps onto each other: RS[5,2] (2k < N) or RS[6,3] (N = 2k) on 0, 1, ...
    and on the same points with the last one replaced."""
    points = list(range(n))
    return reed_solomon_7(points, n // 2), reed_solomon_7(points[:-1] + [n], n // 2)


def monomial_image(s, seed):
    return s, random_monomial(s.n, s.d, random.Random(seed)).apply(s)


# (src, dst) builders and the reason decide_slocc gives
DST_READ_PAIRS = {
    "linear5-d5-image": (lambda: monomial_image(ame_linear_5(5), 1), "lm-witness"),
    "linear5-d7-image": (lambda: monomial_image(ame_linear_5(7), 2), "lm-witness"),
    "ame43-image": (lambda: monomial_image(construct_ame43(), 3), "lm-witness"),
    "ame44-image": (lambda: monomial_image(construct_ame44(), 4), "lm-witness"),
    "ame64-image": (lambda: monomial_image(ame64_phi(Fraction(1, 16)), 5), "lm-witness"),
    "linear5-d5-decorated": (lambda: (ame_linear_5(5), random_monomial(5, 5, random.Random(6))
                                      .apply(decorate_360(ame_linear_5(5), random.Random(6)))),
                             "cokernel-character"),
    "ame43-not-index-unity": (lambda: (construct_ame43(), swapped_ame43()),
                              "different-uniformity"),
    "linear5-d5-not-index-unity": (lambda: (ame_linear_5(5), swapped_last_symbols(ame_linear_5(5))),
                                   "different-uniformity"),
    "rs52-unreachable": (lambda: unreachable_pair(5), "search-exhausted"),
    "rs63-unreachable": (lambda: unreachable_pair(6), "butson-enumeration-cap"),
}


@pytest.mark.parametrize("swap", [False, True], ids=["forward", "swapped"])
@pytest.mark.parametrize("name", sorted(DST_READ_PAIRS))
def test_unproved_dst_read_matches_validated_inputs(name, swap):
    # a MinimalSupportState dst is read with only its rows checked and proved
    # by the search; SparseState inputs are validated up front, so they are
    # the oracle for every verdict, reason and details
    build, reason = DST_READ_PAIRS[name]
    src, dst = build()
    if swap:
        src, dst = dst, src
    cert = decide_slocc(src, dst)
    want = decide_slocc(src.to_sparse(), dst.to_sparse())
    assert cert.reason == reason
    assert (cert.verdict, cert.reason, cert.details) == \
        (want.verdict, want.reason, want.details)


def test_butson_certificates_carry_the_lm_stats():
    # each N = 2k certificate after lm_match's inequivalence reports the
    # search that ran first, with the layer loop's tuple count where it ran
    ame44 = construct_ame44()
    row = min(ame44.phases)
    decorated = [with_phases(ame44, {row: Phase(Fraction(t, 16))}) for t in (1, 3)]
    for (src, dst), reason in [(unreachable_pair(6), "butson-enumeration-cap"),
                               (decorated, "searched-branches-found-no-witness")]:
        cert = decide_slocc(src, dst)
        assert cert.reason == reason
        lm = lm_match(src, dst)
        assert lm.verdict == "inequivalent"
        layers = {} if reason == "butson-enumeration-cap" else {
            "butson_tuples": cert.stats["butson_tuples"]}
        assert cert.stats == {**lm.stats, **layers}
        assert "sigmas_tested" in cert.stats
    assert cert.details == {"butson_tuples": cert.stats["butson_tuples"]}


def test_dst_support_is_checked_only_when_no_sigma_reaches_it(monkeypatch):
    # a sigma from src's validated support proves dst's index unity, in the
    # lm_match branch (2k < N) and in the butson_match branch (N = 2k); an
    # index-unity dst no sigma reaches is checked once, after the search
    pairs = [monomial_image(ame_linear_5(5), 7), monomial_image(construct_ame44(), 8),
             unreachable_pair(5), unreachable_pair(6)]
    checked = []
    orig = states._check_support
    monkeypatch.setattr(states, "_check_support", lambda support, *shape:
                        checked.append(support) or orig(support, *shape))
    for (src, dst), dst_checks in zip(pairs, [0, 0, 1, 1]):
        checked.clear()
        cert = decide_slocc(src, dst)
        assert cert.equivalent == (dst_checks == 0)
        assert checked == [frozenset(src.phases)] + [frozenset(dst.phases)] * dst_checks


@pytest.mark.parametrize("make", [construct_ame43, lambda: ame_linear_5(5), construct_ame44],
                         ids=["ame43", "linear5-d5", "ame44"])
def test_image_with_one_symbol_changed_is_not_uniform(make):
    # the changed row leaves dst without some k-symbol tuple at some k
    # sites, so a search lookup table misses it: no sigma, and dst fails
    # its check, as the validated SparseState inputs do
    src, dst = monomial_image(make(), 9)
    phases = dict(dst.phases)
    row = min(phases)
    phases[((row[0] + 1) % dst.d,) + row[1:]] = phases.pop(row)
    bad = MinimalSupportState(dst.n, dst.d, dst.k, phases, check=False)
    for a, b in [(src, bad), (bad, src), (src.to_sparse(), bad.to_sparse())]:
        with pytest.raises(EquivalenceError, match="k-uniform"):
            decide_slocc(a, b)


@pytest.mark.parametrize("make", [construct_ame43, lambda: ame_linear_5(5)],
                         ids=["ame43", "linear5-d5"])
def test_unchecked_rows_out_of_range_raise_on_either_side(make):
    # the rows of an unchecked dst are checked before the search indexes
    # its symbol maps by them, so a bad row raises as it does for src
    s = make()
    first = min(s.phases)
    bad_rows = [first[:-1] + (s.d,), first[:-1] + (-1,), first[:-1]]
    bads = [MinimalSupportState(s.n, s.d, s.k, {**{r: p for r, p in s.phases.items()
                                                   if r != first}, row: ONE}, check=False)
            for row in bad_rows]
    # a whole site shifted by -1 or +1: a per-site shift would map s onto it
    bads += [MinimalSupportState(s.n, s.d, s.k, {r[:-1] + (r[-1] + step,): p
                                                  for r, p in s.phases.items()}, check=False)
             for step in (-1, 1)]
    for bad in bads:
        for a, b in [(bad, s), (s, bad)]:
            with pytest.raises(StateError, match="bad multi-index"):
                decide_slocc(a, b)


def test_failing_support_is_validated_on_every_call(monkeypatch):
    # only supports that pass are cached: a non-index-unity d^k-row state
    # built unchecked is validated again, and read the same, on each call
    bad = swapped_ame43()
    rows = list(bad.phases)
    checked = []
    orig = states._check_support
    monkeypatch.setattr(states, "_check_support", lambda support, *shape:
                        checked.append(support) or orig(support, *shape))
    first, second = (decide_slocc(bad, construct_ame43()) for _ in range(2))
    assert (first.verdict, first.reason, first.details) == \
        (second.verdict, second.reason, second.details) == \
        ("inequivalent", "different-uniformity", {"src": 1, "dst": 2})
    assert checked.count(frozenset(rows)) == 2
    for _ in range(2):  # each check of the failing support misses the cache
        misses = orig.cache_info().misses
        with pytest.raises(StateError):
            orig(frozenset(rows), 4, 3, 2)
        assert orig.cache_info().misses == misses + 1


def test_cached_support_is_not_reused_for_another_shape():
    # the 16 rows of AME(4,4) pass as (n, d, k) = (4, 4, 2) and are cached;
    # the same rows must still fail as n = 5, as d = 2 (k = 4) or as k = 1
    s = construct_ame44()
    rows = frozenset(s.phases)
    states._check_support(rows, 4, 4, 2)
    assert _read_minimal(s) is not None
    for n, d, k in [(5, 4, 2), (4, 2, 4), (4, 4, 1)]:
        with pytest.raises(StateError):
            states._check_support(rows, n, d, k)
    for n, d in [(5, 4), (4, 2), (4, 16)]:
        assert _read_minimal(MinimalSupportState(n, d, 2, s.phases, check=False)) is None


def test_five_party_decorations_form_many_classes():
    # The diagonal-phase system of the 4-party qutrit state has full row
    # rank, so any decoration of it can be matched.  The five-party linear
    # family has only rank 21 over its 25 support rows: an integer cokernel
    # vector forces a divisibility constraint on the decoration, so generic
    # rational decorations are not monomially reachable -- and for 2k < N
    # monomial equivalence is the whole local-unitary class.
    rng = random.Random(99)
    def decorate(base):
        return with_phases(base, {
            idx: Phase(Fraction(rng.randrange(360), 360))
            for idx in base.support})

    for _ in range(3):
        assert lm_match(construct_ame43(),
                        decorate(construct_ame43())).equivalent
    base = ame_linear_5(5)
    for dst_order in (360, 120, 360):
        cert = lm_match(base, decorate(base))
        assert cert.verdict == "inequivalent"
        assert cert.reason == "cokernel-character"
        assert cert.details["orders"] == {"src": 1, "dst": dst_order}
        assert cert.stats["sigmas_tested"] == 1


def decorate_360(s, rng):
    """s with an independent random m/360-turn phase on every support row."""
    return with_phases(s, {idx: root_of_unity(360, rng.randrange(360))
                           for idx in sorted(s.support)})


def test_d7_linear_monomial_image_is_equivalent():
    rng = random.Random(71)
    src = decorate_360(ame_linear_5(7), rng)
    dst = random_monomial(5, 7, rng, den=360).apply(src)
    cert = decide_slocc(src, dst, max_nodes=DEFAULT_MAX_NODES)
    assert (cert.verdict, cert.reason) == ("equivalent", "lm-witness")
    assert states_equal_up_to_global_phase(cert.witness.apply(src), dst) is not None


def test_gf8_reed_solomon_monomial_image_is_equivalent():
    # RS[5,2] over GF(8): site a carries x_0 + a x_1, a 2k < N support over a
    # field that is not the integers mod a prime
    base = construct_linear(8, [[1, a] for a in range(5)])
    report = check_oa(list(base.phases), 8, 2)
    assert (report["is_oa"], report["index"]) == (True, 1)
    rng = random.Random(8)
    src = decorate_360(base, rng)
    dst = random_monomial(5, 8, rng, den=360).apply(src)
    cert = decide_slocc(src, dst)
    assert (cert.verdict, cert.reason) == ("equivalent", "lm-witness")
    assert states_equal_up_to_global_phase(cert.witness.apply(src), dst) is not None


def test_d7_linear_unreachable_decoration_is_inequivalent():
    # c(i, j) = [4i + j = 0] - [4i + j = 1] sums to zero on every line
    # l(i, j) = a of the directions i, j, i+j, 2i+j, 3i+j that label the
    # sites of row (i, j), since each such line meets each level set of
    # 4i + j once.  So c.A = 0 for the incidence matrix A, and c.t not an
    # integer excludes every diagonal completion of every sigma (c o sigma
    # is again in the cokernel).
    d = 7
    base = ame_linear_5(d)
    dst = decorate_360(base, random.Random(72))
    level = {idx: (4 * idx[0] + idx[1]) % d for idx in base.support}
    c = {idx: int(v == 0) - int(v == 1) for idx, v in level.items()}
    for site in range(5):
        for a in range(d):
            assert sum(v for idx, v in c.items() if idx[site] == a) == 0
    assert sum(v * dst.phases[idx].turn for idx, v in c.items()).denominator != 1
    cert = decide_slocc(base, random_monomial(5, d, random.Random(73), den=360)
                        .apply(dst), max_nodes=DEFAULT_MAX_NODES)
    assert (cert.verdict, cert.reason) == ("inequivalent", "cokernel-character")
    assert cert.details["orders"] == {"src": 1, "dst": 360}


@pytest.mark.parametrize("d", [5, 7])
def test_linear_five_party_automorphism_sigmas(d):
    s = ame_linear_5(d)
    sigmas = lm_automorphism_sigmas(s)
    assert len(set(sigmas)) == len(sigmas) == d * d * (d - 1)
    support = set(s.support)
    for sigma in sigmas:
        assert {tuple(sigma[j][a] for j, a in enumerate(idx))
                for idx in support} == support


def test_reed_solomon_7_3_monomial_image_is_equivalent():
    # RS[7,3] over GF(7): a 7-party 3-uniform state on 343 support rows
    rng = random.Random(73)
    src = decorate_360(construct_linear(7, [[1, a, a * a % 7] for a in range(7)]), rng)
    dst = random_monomial(7, 7, rng, den=360).apply(src)
    cert = lm_match(src, dst, max_nodes=DEFAULT_MAX_NODES)
    assert (cert.verdict, cert.reason) == ("equivalent", "lm-witness")
    assert states_equal_up_to_global_phase(cert.witness.apply(src), dst) is not None


def ame87(turn):
    """AME(8,7) from the [8,4,5] MDS code over GF(7): 2401 support rows,
    with the all-zero row at the given phase."""
    base = construct_linear(7, [[1, a, a * a % 7, a ** 3 % 7] for a in range(7)]
                            + [[0, 0, 0, 1]])
    return with_phases(base, {(0,) * 8: Phase(turn)})


def test_large_support_self_pair_is_decided():
    # 1369 support rows: only the rows that fix sigma are searched by depth
    s = ame_linear_5(37)
    cert = decide_slocc(s, s)
    assert (cert.verdict, cert.reason) == ("equivalent", "lm-witness")
    assert cert.stats["sigmas_tested"] == 1


def test_ame87_decorations_are_decided_within_default_budget():
    # 1/16 and 3/16 give equal cokernel character orders, so every sigma
    # is tried: the support's 14,406 automorphisms, walked as a coset once
    # the self-search has found them, each after the first rejected by the
    # carried-over cokernel test
    cert = lm_match(ame87(Fraction(1, 16)), ame87(Fraction(3, 16)),
                    max_nodes=DEFAULT_MAX_NODES)
    assert (cert.verdict, cert.reason) == ("inequivalent", "search-exhausted")
    assert cert.stats == {"sigmas_tested": 14406, "solves": 1, "coker_rejects": 14405}


def test_ame87_decorations_with_unequal_character_orders_are_decided():
    cert = lm_match(ame87(Fraction(1, 16)), ame87(Fraction(1, 8)))
    assert (cert.verdict, cert.reason) == ("inequivalent", "cokernel-character")
    assert cert.details["orders"] == {"src": 16, "dst": 8}
    assert cert.stats["sigmas_tested"] == 1


def test_stack_depth_does_not_grow_with_support():
    # RS[7,3] has 343 support rows; a search that recursed once per row
    # would overflow this recursion limit
    code = textwrap.dedent("""
        import random, sys
        from fractions import Fraction
        from ameslocc.equivalence import lm_match
        from ameslocc.operators import LocalOperator, SiteOperator
        from ameslocc.phases import Phase, root_of_unity
        from ameslocc.states import construct_linear, with_phases
        rng = random.Random(73)
        rs = construct_linear(7, [[1, a, a * a % 7] for a in range(7)])
        src = with_phases(rs, {(0,) * 7: Phase(Fraction(1, 16))})
        dst = LocalOperator([SiteOperator.monomial(
            rng.sample(range(7), 7), [root_of_unity(360, rng.randrange(360))
                                      for _ in range(7)]) for _ in range(7)]).apply(src)
        sys.setrecursionlimit(150)
        print(lm_match(src, dst).verdict)
    """)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["equivalent"]


def test_ghz_automorphism_count():
    auts = automorphisms(construct_ghz(3, 2))
    assert len(auts) == 2  # identity and the global bit flip
    for w in auts:
        assert states_equal_up_to_global_phase(
            w.apply(construct_ghz(3, 2)), construct_ghz(3, 2)) is not None


def test_ame43_lm_automorphism_sigmas():
    sigmas = lm_automorphism_sigmas(construct_ame43())
    assert len(sigmas) == 18
    assert tuple(tuple(range(3)) for _ in range(4)) in sigmas


def test_fourier_layer_is_automorphism():
    s = construct_ame43()
    layer = LocalOperator([SiteOperator.butson(fourier(3))] * 4)
    assert states_equal_up_to_global_phase(layer.apply(s), s) is not None


def test_butson_branch_finds_tensor_fourier_witness():
    s = construct_ame44()
    witness = next(_butson_layer_witnesses(s, s, DEFAULT_MAX_NODES))
    assert witness is not None
    assert states_equal_up_to_global_phase(witness.apply(s), s) == ONE


@pytest.mark.parametrize("make, count", [(construct_ame43, 19),
                                         (construct_ame44, 49)])
def test_lm_butson_automorphism_counts(make, count):
    s = make()
    auts = automorphisms(s, "lm+butson")
    assert len(auts) == count
    for w in auts:
        assert states_equal_up_to_global_phase(w.apply(s), s) == ONE


def test_butson_match_needs_even_split():
    s = ame_linear_5(5)
    with pytest.raises(EquivalenceError):
        butson_match(s, s)


def test_decide_slocc_ame67_past_enumeration_cap():
    # d = 7 > _BH_CAP: the inequivalence rule needs no Butson enumeration
    base = construct_linear(7, [[1, a, a * a % 7] for a in range(6)])
    src, dst = (with_phases(base, {(0,) * 6: Phase(t)})
                for t in (Fraction(1, 16), Fraction(1, 8)))
    cert = decide_slocc(src, dst)
    assert (cert.verdict, cert.reason) == (
        "inequivalent", "lm-exhausted-butson-condition-violated")


def _rs63_11_pair():
    """RS[6,3] over GF(11), an AME(6,11) outside the small regime, and its
    two decorations 1/16 and 3/16 at one support row."""
    base = construct_linear(11, [[1, a, a * a % 11] for a in range(6)])
    return base, [with_phases(base, {(0,) * 6: Phase(t)})
                  for t in (Fraction(1, 16), Fraction(3, 16))]


def test_butson_match_outside_regime():
    # composed 9-level 2-uniform state: d = 9 is outside the small regime,
    # but a monomial witness decides the pair in every regime
    from ameslocc.states import tensor_compose
    c = tensor_compose(construct_ame43(), construct_ame43())
    for decide in (butson_match, decide_slocc):
        cert = decide(c, c)
        assert (cert.verdict, cert.reason) == ("equivalent", "lm-witness")
    # an lm_match inequivalence there excludes only the monomial form
    _, (src, dst) = _rs63_11_pair()
    for decide in (butson_match, decide_slocc):
        cert = decide(src, dst)
        assert (cert.verdict, cert.reason) == ("inconclusive", "outside-small-regime")
        assert cert.details["lm_reason"] == "search-exhausted"


N2K_BASES = [construct_ame43(), construct_ame44(), construct_ame64()]


@settings(max_examples=8, deadline=None)
@given(which=st.sampled_from(range(len(N2K_BASES))), a=st.integers(0, 15),
       b=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1))
@example(which=1, a=1, b=3, seed=0)
@example(which=2, a=1, b=3, seed=0)
def test_n2k_entry_points_agree(which, a, b, seed):
    # one N = 2k rule: decide_slocc returns butson_match's certificate, and
    # family_classes reports it for turns neither equal nor conjugate
    base = N2K_BASES[which]
    row = (0,) * base.n
    src, plain = (with_phases(base, {row: Phase(Fraction(t, 16))}) for t in (a, b))
    dst = random_monomial(base.n, base.d, random.Random(seed)).apply(plain)
    cert = decide_slocc(src, dst)
    other = butson_match(src, dst)
    assert (cert.verdict, cert.reason) == (other.verdict, other.reason)
    if base.n == 6 and a != b and (a + b) % 16:
        pair, = family_classes(base, row, [Fraction(a, 16), Fraction(b, 16)])["pairs"]
        label = pair["verdict"]
        assert (label.startswith("not-separated-") if cert.verdict == "inconclusive"
                else label == cert.verdict)


def test_family_classes_outside_regime_is_not_separated():
    base, _ = _rs63_11_pair()
    report = family_classes(base, (0,) * 6, [Fraction(1, 16), Fraction(3, 16)])
    pair, = report["pairs"]
    assert pair["verdict"] == "not-separated-outside-small-regime"
    assert pair["reason"] == "outside-small-regime"
    assert pair["details"]["lm_reason"] == "search-exhausted"


def test_decide_slocc_uniformity_split():
    cert = decide_slocc(construct_ghz(4, 3), construct_ame43())
    assert cert.verdict == "inequivalent"
    assert cert.reason == "different-uniformity"


def test_decide_slocc_five_party_pipeline():
    cert = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    assert (cert.verdict, cert.reason, cert.exact) == ("inequivalent", "lu-invariant", True)
    assert cert.details["minimal_side"] == "dst"
    assert cert.details["valid_tuples"] == cert.details["bound"] == 5 ** 5
    assert cert.stats["tuples_tried"] >= 1


def relabel(s, perm):
    """s with party p carrying the symbol party perm[p] carried."""
    sp = s.to_sparse()
    return SparseState(sp.n, sp.d, {tuple(row[q] for q in perm): a
                                    for row, a in sp.terms.items()}, scale2=sp.scale2)


def local_diagonal(s, rng, den):
    """s under a random local diagonal unitary of den-th roots of unity."""
    return LocalOperator([SiteOperator.monomial(
        list(range(s.d)), [root_of_unity(den, rng.randrange(den)) for _ in range(s.d)])
        for _ in range(s.n)]).apply(s)


def affine_symbols(s, rng):
    """s under the per-party symbol map x -> a x + b mod d, a != 0."""
    maps = [(rng.randrange(1, s.d), rng.randrange(s.d)) for _ in range(s.n)]
    return LocalOperator([SiteOperator.permutation([(a * x + b) % s.d for x in range(s.d)])
                          for a, b in maps]).apply(s)


def _with_row_moved(s, site):
    """s with one support row shifted by 1 at the given site, off the support."""
    terms = dict(s.terms)
    for row in sorted(terms):
        moved = row[:site] + ((row[site] + 1) % s.d,) + row[site + 1:]
        if moved not in terms:
            terms[moved] = terms.pop(row)
            return SparseState(s.n, s.d, terms, scale2=s.scale2)
    raise AssertionError("no row leaves the support when moved")


@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_lu_screen_recognition_matches_definition(d):
    # the screen certifies the phased family against any minimal-support
    # AME(5,d) state, in either order, and nothing else among these pairs:
    # a d^2-term pair goes to lm_match, and the phased state against itself
    # has |V| = bound and E = 0 on every tuple
    phased = construct_ame5_phased(d)
    linear = ame_linear_5(d)
    other = construct_linear(d, [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]])
    for minimal in (linear, other):
        for a, b in ((phased, minimal), (minimal, phased)):
            cert = decide_slocc(a, b)
            assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant")
            assert cert.details["minimal_side"] == ("dst" if a is phased else "src")
    assert decide_slocc(linear, other).reason != "lu-invariant"
    assert decide_slocc(phased, phased).reason == "no-complete-procedure-for-this-pair"


@pytest.mark.parametrize("site", range(5))
def test_lu_screen_rejects_one_changed_row(site):
    # one moved row leaves no coset of a linear code, so the screen does
    # not apply, whichever side the minimal state is on
    from ameslocc.reductions import lu_witness
    moved = _with_row_moved(construct_ame5_phased(5), site)
    assert lu_witness(ame_linear_5(5), moved) is None
    assert lu_witness(ame_linear_5(5), construct_ame5_phased(5)) is not None


def test_lu_screen_leaves_an_equivalent_fourier_image_undecided():
    # the Fourier transform at party 4 maps ame_linear_5 onto d^3 terms on a
    # linear code: an equivalent pair, which the screen must not separate
    s = ame_linear_5(5)
    image = LocalOperator([SiteOperator.identity(5)] * 4
                          + [SiteOperator.butson(fourier(5))]).apply(s)
    assert len(image.to_sparse().terms) == 5 ** 3
    cert = decide_slocc(s, image)
    assert (cert.verdict, cert.reason) == ("inconclusive", "no-complete-procedure-for-this-pair")


def phasing(d, a, b):
    """The state sum w^((a i + b j) k) |i, j, i+j, 2i+j+k, k>."""
    terms = {(i, j, (i + j) % d, (2 * i + j + k) % d, k):
             Amp.from_phase(root_of_unity(d, (a * i + b * j) * k))
             for i, j, k in itertools.product(range(d), repeat=3)}
    return SparseState(5, d, terms, scale2=d ** 3)


def two_uniform_phasings(d):
    """The phasings that are 2-uniform, keyed by (a, b)."""
    out = {}
    for a, b in itertools.product(range(d), repeat=2):
        s = phasing(d, a, b)
        if states.uniformity(s) == 2:
            out[a, b] = s
    return out


def test_every_two_uniform_phasing_is_separated():
    phasings = two_uniform_phasings(5)
    assert len(phasings) == 20 and (3, 1) in phasings
    for s in phasings.values():
        cert = decide_slocc(s, ame_linear_5(5))
        assert (cert.verdict, cert.reason, cert.exact) == ("inequivalent", "lu-invariant", True)


def test_phasings_that_are_not_2_uniform_keep_their_uniformity_verdict():
    # the screen's head certifies none of them, so both sides' uniformity
    # is read, and it differs before the rest of V is searched
    rest = [(0, 0), (1, 3), (2, 1), (3, 4), (4, 2)]
    assert sorted(set(itertools.product(range(5), repeat=2)) - set(two_uniform_phasings(5))) \
        == sorted(rest)
    linear = ame_linear_5(5)
    for a, b in rest:
        s = phasing(5, a, b)
        for src, dst, details in [(s, linear, {"src": 1, "dst": 2}),
                                  (linear, s, {"src": 2, "dst": 1})]:
            cert = decide_slocc(src, dst)
            assert (cert.verdict, cert.reason, cert.details) == (
                "inequivalent", "different-uniformity", details)


@pytest.mark.parametrize("d", [5, 7])
def test_ladder_pair_reads_only_one_party_marginals(d, monkeypatch):
    # the screen's head certifies a local diagonal image of the phased state
    # from its support and phases, and the invariant then needs the state
    # critical, which its one-party marginals show: no 2-party marginal
    # and no uniformity is read, and the certificate is lu_witness's
    from ameslocc.reductions import lu_witness
    rng = random.Random(d)
    asked, measured = [], []
    is_k_uniform, uniformity = states.is_k_uniform, states.uniformity
    monkeypatch.setattr(states, "is_k_uniform",
                        lambda s, k: asked.append(k) or is_k_uniform(s, k))
    monkeypatch.setattr(states, "uniformity", lambda s: measured.append(s) or uniformity(s))
    for _ in range(3):
        phased = local_diagonal(construct_ame5_phased(d), rng, d)
        linear = local_diagonal(ame_linear_5(d), rng, d)
        for src, dst, side in [(phased, linear, "dst"), (linear, phased, "src")]:
            asked.clear()
            cert = decide_slocc(src, dst)
            assert asked == [1]
            details, tried, exact = lu_witness(linear, phased)
            assert (cert.verdict, cert.reason, cert.exact) == ("inequivalent", "lu-invariant", exact)
            assert cert.details == {"minimal_side": side, **details}
            assert cert.stats == {"tuples_tried": tried}
    assert measured == []


@pytest.mark.parametrize("build", ["wrong-norm", "weight-1-word"])
def test_coset_state_that_is_not_1_uniform_raises(build):
    # A coset state whose terms share one modulus fails 1-uniformity only
    # through a zero coordinate or a weight-1 word of its code.  Either one
    # leaves V too large, or E = 0 on all of it, so the screen's head
    # certifies no such state (a random search over such codes at d = 5
    # found none).  The head does certify the phased family when its scale2
    # misstates the squared norm of its terms.
    from ameslocc.reductions import lu_witness
    if build == "wrong-norm":
        other = SparseState(5, 5, construct_ame5_phased(5).terms, scale2=2 * 5 ** 3)
        assert lu_witness(ame_linear_5(5), other) is not None
    else:
        rng = random.Random(11)
        gens = [(1, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 1, 1, 2)]
        rows = {tuple(sum(c * g[p] for c, g in zip(x, gens)) % 5 for p in range(5))
                for x in itertools.product(range(5), repeat=3)}
        other = SparseState(5, 5, {r: Amp.from_phase(root_of_unity(5, rng.randrange(5)))
                                   for r in sorted(rows)}, scale2=125)
        assert lu_witness(ame_linear_5(5), other) is None
    assert not states.is_k_uniform(other, 1)
    for pair in [(other, ame_linear_5(5)), (ame_linear_5(5), other)]:
        with pytest.raises(EquivalenceError, match="k-uniform"):
            decide_slocc(*pair)


def test_symbol_shift_on_the_minimal_side_keeps_the_verdict():
    shift = LocalOperator([SiteOperator.permutation([(x + 1) % 5 for x in range(5)])]
                          + [SiteOperator.identity(5)] * 4)
    cert = decide_slocc(shift.apply(ame_linear_5(5)), construct_ame5_phased(5))
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), swap=st.booleans(),
       perm=st.permutations(range(5)), moves=st.lists(st.sampled_from(
           ["diagonal-minimal", "diagonal-other", "monomial-minimal", "affine-other"]),
           max_size=4))
@example(seed=0, swap=False, perm=[0, 1, 2, 3, 4], moves=[])
def test_lu_verdict_survives_local_maps_and_relabelling(seed, swap, perm, moves):
    rng = random.Random(seed)
    other, minimal = construct_ame5_phased(5), ame_linear_5(5)
    for move in moves:
        if move == "diagonal-minimal":
            minimal = local_diagonal(minimal, rng, 360)
        elif move == "diagonal-other":
            other = local_diagonal(other, rng, 360)
        elif move == "monomial-minimal":
            minimal = random_monomial(5, 5, rng, den=360).apply(minimal)
        else:
            other = affine_symbols(other, rng)
    other, minimal = relabel(other, perm), relabel(minimal, perm)
    pair = (minimal, other) if swap else (other, minimal)
    cert = decide_slocc(*pair)
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant")
    assert cert.details["minimal_side"] == ("src" if swap else "dst")


def replay_lu_certificate(obj, src, dst):
    """Check an lu-invariant certificate's witness from its JSON and the
    inputs alone: the witness rows and their pattern copies are support
    rows of the non-minimal side, and the turn they give is the recorded
    one.  Returns that turn."""
    other = (dst if obj["details"]["minimal_side"] == "src" else src).to_sparse()
    copies = [list(itertools.permutations(range(3)))[i] for i in obj["details"]["pattern"]]
    rows = [tuple(r) for r in obj["details"]["witness"]]
    copied = [tuple(rows[c[j]][p] for p, c in enumerate(copies)) for j in range(3)]
    assert all(row in other.terms for row in rows + copied)
    turn = sum(other.terms[r].polar()[1].turn for r in rows) - sum(
        other.terms[r].polar()[1].turn for r in copied)
    num, den = obj["details"]["witness_turn"]
    assert (turn - Fraction(num, den)) % 1 == 0
    return turn


def test_lu_certificate_replays_from_json():
    rng = random.Random(3)
    src = local_diagonal(relabel(construct_ame5_phased(5), [3, 0, 4, 1, 2]), rng, 360)
    dst = random_monomial(5, 5, rng, den=360).apply(ame_linear_5(5))
    obj = json.loads(json.dumps(decide_slocc(src, dst).to_json()))
    assert (obj["verdict"], obj["reason"]) == ("inequivalent", "lu-invariant")
    assert set(obj["details"]) == {"pattern", "minimal_side", "valid_tuples", "bound",
                                   "witness", "witness_turn"}
    assert obj["stats"] == {"tuples_tried": obj["stats"]["tuples_tried"]}
    assert replay_lu_certificate(obj, src, dst) % 1 != 0


def test_lu_witness_reads_a_real_turn():
    # a float local diagonal leaves the witness turn a float, read within
    # the tolerance; the verdict stands, marked inexact
    rng = random.Random(4)
    diag = LocalOperator([SiteOperator.monomial(
        list(range(5)), [Phase(rng.random()) for _ in range(5)]) for _ in range(5)])
    src = diag.apply(construct_ame5_phased(5))
    assert not src.is_exact
    cert = decide_slocc(src, ame_linear_5(5))
    assert (cert.verdict, cert.reason, cert.exact) == ("inequivalent", "lu-invariant", False)
    num, den = cert.details["witness_turn"]
    assert isinstance(num, float) and den == 1 and 0 < num < 1
    obj = json.loads(json.dumps(cert.to_json()))
    rows = [tuple(r) for r in obj["details"]["witness"]]
    copies = [list(itertools.permutations(range(3)))[i] for i in obj["details"]["pattern"]]
    copied = [tuple(rows[c[j]][p] for p, c in enumerate(copies)) for j in range(3)]
    turn = sum(cmath.phase(complex(src.terms[r])) for r in rows) - sum(
        cmath.phase(complex(src.terms[r])) for r in copied)
    assert abs((turn / (2 * math.pi) - num + 0.5) % 1 - 0.5) < 1e-9


def test_pipeline_certificate_is_a_fresh_copy_per_decision():
    first = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    second = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    assert first.details == second.details
    first.details["witness"][0][0] += 1
    first.details["pattern"].reverse()
    third = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    assert third.details == second.details != first.details


def test_decide_slocc_complete_for_odd_split():
    s = ame_linear_5(5)
    rng = random.Random(1)
    cert = decide_slocc(s, random_monomial(5, 5, rng).apply(s))
    assert cert.equivalent


def test_family_classes_verdicts():
    base = construct_ame64()
    turns = [Fraction(1, 16), Fraction(3, 16), Fraction(5, 16)]
    report = family_classes(base, (0,) * 6, turns)
    assert all(p["verdict"] == "inequivalent" for p in report["pairs"])
    same = family_classes(base, (0,) * 6, [Fraction(1, 16), Fraction(1, 16)])
    assert same["pairs"][0]["verdict"] == "not-separated-equal-phase"
    conj = family_classes(base, (0,) * 6, [Fraction(1, 16), Fraction(15, 16)])
    assert conj["pairs"][0]["verdict"] == "not-separated-conjugate-phase"


def test_family_classes_needs_k3():
    with pytest.raises(EquivalenceError):
        family_classes(construct_ame43(), (0, 0, 0, 0), [Fraction(1, 4)])


def test_certificate_json():
    cert = lm_match(construct_ame43(), construct_ame43())
    obj = cert.to_json()
    assert obj["verdict"] == "equivalent"
    assert obj["witness"] is not None and len(obj["witness"]["sites"]) == 4
