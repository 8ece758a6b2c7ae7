import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ameslocc import states
from ameslocc.butson import fourier
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import ONE, Amp, Phase, PhaseError, root_of_unity
from ameslocc.reductions import verify_rho345_lemma
from ameslocc.states import (MinimalSupportState, SparseState, StateError,
                             _field_tables, _infer_k,
                             ame64_phi, ame_linear_5, construct_ame43,
                             construct_ame44, construct_ame5_phased,
                             construct_ame64, construct_ghz, construct_linear,
                             is_k_uniform, is_minimal_support, reduced_density,
                             states_equal_up_to_global_phase, support_count,
                             tensor_compose, uniformity, with_phases)


def test_ghz_support():
    g = construct_ghz(3, 2)
    assert sorted(g.support) == [(0, 0, 0), (1, 1, 1)]
    assert g.k == 1
    assert uniformity(g) == 1


def test_ghz_rejects_bad_params():
    with pytest.raises(StateError):
        construct_ghz(1, 2)
    with pytest.raises(StateError):
        construct_ghz(3, 1)


def test_sparse_state_checks_every_row():
    terms = dict(construct_ame43().to_sparse().terms)
    row = min(terms)
    for bad in [row[:-1] + (3,), row[:-1] + (-1,), row[:-1], row + (0,)]:
        with pytest.raises(StateError, match="bad multi-index"):
            SparseState(4, 3, {**terms, bad: Amp.one()}, scale2=10)
    assert SparseState(4, 3, {}, scale2=1).terms == {}


def test_ame43_is_2_uniform_minimal():
    s = construct_ame43()
    assert len(s.phases) == 9
    assert is_minimal_support(s, 2)
    assert uniformity(s) == 2
    # rows are (i, j, i+j, 2i+j) mod 3
    assert (1, 2, 0, 1) in s.support


def test_ame55_prime_family():
    s = ame_linear_5(5)
    assert len(s.phases) == 25
    assert uniformity(s) == 2
    with pytest.raises(StateError):
        ame_linear_5(4)  # needs the five linear forms pairwise independent


def test_ame44_field_construction():
    s = construct_ame44()
    assert s.d == 4 and s.n == 4
    assert len(s.phases) == 16
    assert is_k_uniform(s, 2)


def test_ame64_uniformity():
    s = construct_ame64()
    assert len(s.phases) == 64
    assert uniformity(s) == 3


def test_phased_family_counts():
    s = construct_ame5_phased(3)
    assert s.n == 5 and len(s.terms) == 27
    assert uniformity(s) == 2
    assert s.as_minimal(k=2) is None  # d^3 terms, not minimal for k=2


def test_index_unity_validation():
    # duplicate a projected pair -> not an orthogonal-array support
    with pytest.raises(StateError):
        MinimalSupportState(4, 3, 2, {
            (i, j, (i + j) % 3, (2 * i + j) % 3) if (i, j) != (1, 1)
            else (1, 1, 0, 0): ONE
            for i in range(3) for j in range(3)})


def validate_row_wise(s):
    """MinimalSupportState.validate as one pass over the rows per check."""
    size = s.d ** s.k
    if len(s.phases) != size:
        raise StateError("support size %d != d^k = %d" % (len(s.phases), size))
    for idx in s.phases:
        if len(idx) != s.n or any(not (0 <= x < s.d) for x in idx):
            raise StateError("bad multi-index %r for n=%d d=%d" % (idx, s.n, s.d))
    for cols in itertools.combinations(range(s.n), s.k):
        if len({tuple(idx[c] for c in cols) for idx in s.phases}) != size:
            raise StateError("support is not index-unity on columns %r" % (cols,))


def _ame43_rows(replace=None):
    rows = [(i, j, (i + j) % 3, (2 * i + j) % 3) for i in range(3) for j in range(3)]
    for pos, row in (replace or {}).items():
        rows[pos] = row
    return MinimalSupportState(4, 3, 2, {r: ONE for r in rows}, check=False)


VALIDATE_CASES = {
    "ame43": lambda: _ame43_rows(),
    "ame64": construct_ame64,
    "ghz-k1": lambda: construct_ghz(3, 2),
    "one-row-k0": lambda: MinimalSupportState(3, 2, 0, {(0, 1, 1): ONE}, check=False),
    "wrong-size": lambda: MinimalSupportState(
        4, 3, 2, dict(list(construct_ame43().phases.items())[:8]), check=False),
    "out-of-range": lambda: _ame43_rows({4: (1, 1, 2, 3)}),
    "negative": lambda: _ame43_rows({2: (0, -1, 2, 1)}),
    "short-index": lambda: _ame43_rows({5: (1, 2, 0)}),
    "two-bad-rows": lambda: _ame43_rows({3: (1, 0, 1), 6: (2, 0, 5, 1)}),
    # (i, j, i+j, i+j): the first five column pairs are unity, (2, 3) is not
    "unity-fails-late": lambda: MinimalSupportState(
        4, 3, 2, {(i, j, (i + j) % 3, (i + j) % 3): ONE
                  for i in range(3) for j in range(3)}, check=False),
}


@pytest.mark.parametrize("make", VALIDATE_CASES.values(), ids=VALIDATE_CASES.keys())
def test_validate_matches_row_wise_check(make):
    s = make()
    outcomes = []
    for check in (s.validate, lambda: validate_row_wise(s)):
        try:
            check()
            outcomes.append(None)
        except StateError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


def test_minimal_json_roundtrip():
    s = with_phases(construct_ame43(), {(0, 0, 0, 0): root_of_unity(9, 2)})
    t = MinimalSupportState.from_json(s.to_json())
    assert t.phases == s.phases
    assert (t.n, t.d, t.k) == (s.n, s.d, s.k)


def test_sparse_json_roundtrip():
    s = construct_ame5_phased(3)
    t = SparseState.from_json(s.to_json())
    assert set(t.terms) == set(s.terms)
    assert t.scale2 == s.scale2
    assert states_equal_up_to_global_phase(s, t) is not None


def test_sparse_json_keeps_dense_images_exact():
    # the F3 x4 image of AME(4,3) has amplitudes 9 over scale2 729: exact
    # amplitudes that are not single unit roots are written as integer counts
    image = LocalOperator([SiteOperator.butson(fourier(3))] * 4).apply(construct_ame43())
    obj = json.loads(json.dumps(image.to_json()))
    assert obj["terms"][0] == {"idx": [0, 0, 0, 0], "q": 1, "counts": [[0, 9]], "den": 1}
    back = SparseState.from_json(obj)
    assert back.is_exact and back.scale2 == image.scale2
    assert back.terms.keys() == image.terms.keys()
    assert all(back.terms[i].equals(a) for i, a in image.terms.items())


def test_sparse_json_reads_every_amplitude_encoding():
    obj = {"n": 2, "d": 2, "scale2": "3", "terms": [
        {"idx": [0, 0], "phase": {"turn": {"num": 1, "den": 4}}},
        {"idx": [0, 1], "re": 0.5, "im": -0.5},
        # 2 * w_6 / 2: exponents are read mod q and zero counts dropped
        {"idx": [1, 1], "q": 6, "counts": [[7, 2], [3, 0]], "den": 2}]}
    s = SparseState.from_json(obj)
    assert s.terms[(0, 0)].equals(Amp.from_phase(Phase(Fraction(1, 4))))
    assert not s.terms[(0, 1)].is_exact and complex(s.terms[(0, 1)]) == 0.5 - 0.5j
    assert s.terms[(1, 1)].polar() == (1, Phase(Fraction(1, 6)))
    for bad in ({"q": 0, "counts": [], "den": 1}, {"q": 3, "counts": [[0, 1.5]], "den": 1},
                {"q": 3, "counts": [[0, 1]], "den": -1}):
        with pytest.raises(PhaseError):
            SparseState.from_json({"n": 1, "d": 2, "terms": [{"idx": [0], **bad}]})


def test_sparse_json_writes_unit_moduli_as_phases():
    w = Amp.from_phase(root_of_unity(6, 1))
    # 1 + 2 w_3 + w_3^2 collapses to w_3, since 1 + w_3 + w_3^2 = 0
    collapsed = Amp(terms={Fraction(0): 1, Fraction(1, 3): 2, Fraction(2, 3): 1})
    s = SparseState(2, 2, {(0, 0): w.scaled(-1), (0, 1): collapsed, (1, 0): w.scaled(2),
                           (1, 1): Amp.from_complex(1j)}, scale2=7)
    obj = s.to_json()
    terms = {tuple(t["idx"]): t for t in obj["terms"]}
    assert terms[(0, 0)]["phase"] == {"turn": {"num": 2, "den": 3}}
    assert terms[(0, 1)]["phase"] == {"turn": {"num": 1, "den": 3}}
    assert "phase" not in terms[(1, 0)]
    assert terms[(1, 1)]["phase"] == {"turn_real": 0.25}
    back = SparseState.from_json(json.loads(json.dumps(obj)))
    assert back.scale2 == 7 and back.terms.keys() == s.terms.keys()
    assert all(back.terms[i].equals(a) for i, a in s.terms.items())


def test_ame64_phi_refuses_a_nonfinite_turn():
    for turn in (math.nan, math.inf):
        with pytest.raises(PhaseError):
            ame64_phi(turn)


def test_tensor_compose_9level():
    a = construct_ame43()
    c = tensor_compose(a, a)
    assert isinstance(c, MinimalSupportState)
    assert c.d == 9 and c.n == 4
    assert len(c.phases) == 81
    assert uniformity(c) == 2


def test_with_phases_rejects_foreign_index():
    with pytest.raises(StateError):
        with_phases(construct_ame43(), {(2, 2, 2, 2): ONE})


def test_ame64_phi_marks_origin():
    s = ame64_phi(0.25)
    assert s.phases[(0,) * 6].close_to(Phase(0.25))
    assert not s.is_exact
    t = ame64_phi(Fraction(1, 4))
    assert t.is_exact


def uniformity_bottom_up(s):
    """Uniformity by its definition: levels k = 1, 2, ... in turn, each
    tested on every k-party partial trace, up to the first level that fails."""
    sp = s.to_sparse()
    best = 0
    for k in range(1, sp.n // 2 + 1):
        if not all(reduced_density(sp, keep).is_maximally_mixed()
                   for keep in itertools.combinations(range(sp.n), k)):
            break
        best = k
    return best


def _unit_amp(m):
    return Amp(terms={Fraction(0): Fraction(m)})


UNIFORMITY_CASES = {
    "ghz-3-2": lambda: construct_ghz(3, 2),
    "ghz-4-3": lambda: construct_ghz(4, 3),
    "ame43": construct_ame43,
    "ame44": construct_ame44,
    "ame64": construct_ame64,
    "ame55": lambda: ame_linear_5(5),
    "phased-3": lambda: construct_ame5_phased(3),
    "phased-5": lambda: construct_ame5_phased(5),
    "ame64-phi": lambda: ame64_phi(Fraction(1, 16)),
    "ame64-real-turn": lambda: ame64_phi(0.1),
    "ame43-x-ame43": lambda: tensor_compose(construct_ame43(), construct_ame43()),
    "ghz-x-ame43": lambda: tensor_compose(construct_ghz(4, 3), construct_ame43()),
    "ame44-x-fourier-ghz": lambda: tensor_compose(
        construct_ame44(),
        LocalOperator([SiteOperator.butson(fourier(2))] * 4).apply(construct_ghz(4, 2))),
    # the parity support has 2^2 rows but is only 1-uniform at N = 3
    "parity": lambda: MinimalSupportState(
        3, 2, 2, {r: ONE for r in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]},
        check=False),
    "unequal-moduli": lambda: SparseState(
        4, 2, {(0, 0, 0, 0): _unit_amp(1), (1, 1, 1, 1): _unit_amp(1),
               (0, 0, 1, 1): _unit_amp(2), (1, 1, 0, 0): _unit_amp(2)}, scale2=10),
    "product": lambda: SparseState(
        3, 2, {(0, 0, 0): Amp.one(), (0, 1, 0): Amp.one()}, scale2=2),
}


@pytest.mark.parametrize("make", UNIFORMITY_CASES.values(), ids=UNIFORMITY_CASES.keys())
def test_uniformity_top_down_matches_bottom_up(make):
    s = make()
    want = uniformity_bottom_up(s)
    assert uniformity(s) == want
    n = s.to_sparse().n
    assert [is_k_uniform(s, k) for k in range(1, n // 2 + 1)] == \
        [k <= want for k in range(1, n // 2 + 1)]


def test_reduced_density_maximally_mixed():
    rho = reduced_density(construct_ame43(), (0, 2))
    assert rho.is_maximally_mixed()
    rho1 = reduced_density(construct_ame43(), (1, 2, 3))
    assert not rho1.is_maximally_mixed()
    assert rho1.trace().equals(Amp.one())


def test_reduced_density_random_sparse_float():
    rng = random.Random(11)
    for _ in range(25):
        n, d = 3, 2
        terms = {}
        for _ in range(rng.randint(2, 6)):
            idx = tuple(rng.randrange(d) for _ in range(n))
            terms[idx] = Amp.from_complex(complex(rng.uniform(-1, 1),
                                                  rng.uniform(-1, 1)))
        if not terms:
            continue
        norm2 = sum(abs(complex(a)) ** 2 for a in terms.values())
        s = SparseState(n, d, terms, scale2=norm2)
        rho = reduced_density(s, (0, 1))
        assert abs(complex(rho.trace()) - 1) < 1e-9
        for i in range(rho.dim):
            for j in range(rho.dim):
                zij = complex(rho.entry(i, j))
                zji = complex(rho.entry(j, i))
                assert zij == pytest.approx(zji.conjugate(), abs=1e-9)
        want = partial_trace_by_definition(s, (0, 1))
        for (i, j), a in want.items():
            assert complex(rho.entry(i, j)) == pytest.approx(complex(a), abs=1e-9)


@st.composite
def exact_states_and_keeps(draw):
    """A small exact SparseState with rational-turn amplitudes, plus a kept
    strict subset of its sites.  Supports are random, full, or GHZ-shaped
    (whose one-site reductions are maximally mixed); half the draws use only
    turns 0 and 1/2 with unit weights, so that entries cancel to zero.  The
    other half draw amplitudes of up to two roots of unity, as a Butson
    layer produces, with turns over 6 or mixed over 4 and 6 (conductor 12).
    scale2 is the sum of the squared weights, a nominal normalization that
    the definition below uses too."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3))
    indices = st.tuples(*[st.integers(0, d - 1)] * n)
    support = draw(st.one_of(
        st.sets(indices, min_size=1),
        st.just(set(itertools.product(range(d), repeat=n))),
        st.just({(s,) * n for s in range(d)})))
    signs = draw(st.booleans())
    dens = [2] if signs else draw(st.sampled_from([[6], [4, 6]]))
    turns = st.sampled_from(dens).flatmap(
        lambda den: st.integers(0, den - 1).map(lambda m: Fraction(m, den)))
    weights = st.sampled_from([Fraction(1)] if signs else
                              [Fraction(1), Fraction(2), Fraction(1, 3)])
    parts = st.lists(st.tuples(turns, weights), min_size=1, max_size=1 if signs else 2)
    weighted = {idx: draw(parts) for idx in sorted(support)}
    terms = {}
    for idx, amp_parts in weighted.items():
        terms[idx] = Amp.zero()
        for t, w in amp_parts:
            terms[idx] = terms[idx] + Amp.from_phase(Phase(t), w)
    scale2 = sum(w * w for amp_parts in weighted.values() for _, w in amp_parts)
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return SparseState(n, d, terms, scale2=scale2), sorted(keep)


def partial_trace_by_definition(s, keep):
    """rho[i, j] = sum over traced-out symbols t of psi(i, t) conj(psi(j, t)),
    over every kept-site row and column, ranked base d."""
    drop = [p for p in range(s.n) if p not in keep]
    rows = list(itertools.product(range(s.d), repeat=len(keep)))
    rho = {}
    for i, ki in enumerate(rows):
        for j, kj in enumerate(rows):
            acc = Amp.zero()
            for t in itertools.product(range(s.d), repeat=len(drop)):
                a, b = [0] * s.n, [0] * s.n
                for p, x, y in zip(keep, ki, kj):
                    a[p], b[p] = x, y
                for p, x in zip(drop, t):
                    a[p] = b[p] = x
                ca, cb = s.terms.get(tuple(a)), s.terms.get(tuple(b))
                if ca is not None and cb is not None:
                    acc = acc + (ca * cb.conj()).scaled(Fraction(1) / s.scale2)
            rho[i, j] = acc
    return rho


@settings(max_examples=60, deadline=None)
@given(exact_states_and_keeps())
# unnormalized: d^|keep| entries equal to 1/dim that are not all diagonal
@example((SparseState(3, 2, {(0, 0, 0): Amp.one(), (0, 1, 0): Amp.one()},
                      scale2=4), [0, 1]))
# groups of size d: dropping sites (0, 1, 2) of the phased state is rank-deficient
@example((construct_ame5_phased(3), [3, 4]))
# singleton groups: sites (2, 3, 4) determine the whole term
@example((construct_ame5_phased(3), [0, 1]))
# 1 + w_3 next to single roots of order 4: one count vector over conductor 12
@example((SparseState(2, 2, {(0, 0): Amp(terms={Fraction(0): Fraction(1), Fraction(1, 3): Fraction(1)}),
                             (0, 1): Amp.from_phase(Phase(Fraction(1, 4))),
                             (1, 1): Amp.from_phase(Phase(Fraction(3, 4)), Fraction(2))},
                      scale2=6), [1]))
# equal moduli, every group a lone row, kept symbol 0 on two rows and 1 on one
@example((SparseState(3, 2, {(0, 0, 0): Amp.from_phase(Phase(Fraction(1, 4))),
                             (0, 0, 1): Amp.from_phase(Phase(Fraction(1, 3))),
                             (1, 1, 1): Amp.one()}, scale2=3), [0]))
# unequal moduli, every group a lone row
@example((SparseState(3, 2, {(0, 0, 0): Amp.from_phase(Phase(Fraction(1, 4)), Fraction(2)),
                             (1, 0, 1): Amp.from_phase(Phase(Fraction(1, 3))),
                             (0, 1, 1): Amp(terms={Fraction(0): Fraction(1),
                                                   Fraction(1, 6): Fraction(1)})},
                      scale2=7), [0]))
# a two-row group listed larger kept symbol first: its pair is summed as
# (0, 1) only after swapping, and (1, 0) is filled in as the conjugate
@example((SparseState(2, 2, {(1, 0): Amp.from_phase(Phase(Fraction(1, 4))),
                             (0, 0): Amp.from_phase(Phase(Fraction(1, 3))),
                             (1, 1): Amp.one()}, scale2=3), [0]))
# the pair of kept symbols (0, 1) listed in one order in one group and in
# the other order in the next: both groups add to one entry
@example((SparseState(2, 2, {(1, 0): Amp.from_phase(Phase(Fraction(1, 4))),
                             (0, 0): Amp.from_phase(Phase(Fraction(1, 3))),
                             (0, 1): Amp.one(),
                             (1, 1): Amp.from_phase(Phase(Fraction(1, 6)))},
                      scale2=4), [0]))
def test_sparse_reduced_density_matches_definition(case):
    s, keep = case
    rho = reduced_density(s, keep)
    want = partial_trace_by_definition(s, keep)
    assert all(not a.is_zero() for a in rho.entries.values())
    assert len(rho.entries) == sum(not a.is_zero() for a in want.values())
    for (i, j), a in want.items():
        assert rho.entry(i, j).equals(a)
    mixed = Amp(terms={Fraction(0): Fraction(1, rho.dim)})
    assert rho.is_maximally_mixed() == all(
        a.equals(mixed if i == j else Amp.zero()) for (i, j), a in want.items())


def test_five_party_partial_traces_add_no_amps(monkeypatch):
    # entries are summed as integer exponent counts; an Amp is built only
    # for a surviving entry, and equal entries compare without arithmetic
    calls = []
    add = Amp.__add__

    def counted(a, b):
        calls.append(1)
        return add(a, b)

    monkeypatch.setattr(Amp, "__add__", counted)
    assert uniformity(construct_ame5_phased(7)) == 2
    assert len(calls) == 0
    assert verify_rho345_lemma(7)
    assert len(calls) == 0


@pytest.mark.parametrize("d", range(2, 8))
def test_phased_state_shares_its_root_amplitudes(d):
    built = construct_ame5_phased(d)
    terms = {(i, j, (i + j) % d, (2 * i + j + k) % d, k):
             Amp.from_phase(root_of_unity(d, (3 * i + j) * k))
             for i, j, k in itertools.product(range(d), repeat=3)}
    assert list(built.terms) == list(terms)
    assert all(built.terms[idx].form() == amp.form() for idx, amp in terms.items())
    assert len({id(amp) for amp in built.terms.values()}) <= d
    assert uniformity(built) == 2


def test_partial_trace_zero_tests_run_over_each_entry_conductor(monkeypatch):
    # the state's turns 1/53, 1/57, 1/58, 1/59 give it conductor ~10^7, but
    # its entries only need 53 * 58: diagonal entries (sums of squared
    # moduli) and single-exponent entries are nonzero at once, and the one
    # off-diagonal entry of two exponents, w_53 + w_58 at (0, 1), is tested
    # over its own conductor
    import ameslocc.phases as phases
    w = lambda p: Amp.from_phase(Phase(Fraction(1, p)))
    s = SparseState(2, 3, {(0, 0): w(53) + w(58), (1, 0): w(1), (0, 1): w(57), (2, 1): w(59)},
                    scale2=4)
    seen = []
    real = phases.exponent_sum_is_zero

    def own_conductor(coeffs, q):
        assert math.gcd(q, *coeffs) == 1 and q <= 53 * 58, q
        seen.append(q)
        return real(coeffs, q)

    monkeypatch.setattr(phases, "exponent_sum_is_zero", own_conductor)
    rho = reduced_density(s, [0])
    monkeypatch.undo()
    assert seen == [53 * 58]
    want = partial_trace_by_definition(s, [0])
    assert all(rho.entry(i, j).equals(a) for (i, j), a in want.items())


def test_reduced_density_of_large_dimension():
    # 2^21 x 2^21 matrix with two nonzero entries
    rho = reduced_density(construct_ghz(22, 2), range(21))
    assert rho.dim == 2 ** 21 and len(rho.entries) == 2
    half = Amp(terms={Fraction(0): Fraction(1, 2)})
    assert rho.entry(0, 0).equals(half)
    assert rho.entry(rho.dim - 1, rho.dim - 1).equals(half)
    assert rho.trace().equals(Amp.one())
    assert not rho.is_maximally_mixed()


@pytest.mark.parametrize("keep", [(0, 0), (0, 7), (-1,), (), (0, 1, 2, 3)],
                         ids=["repeated", "out-of-range", "negative", "empty", "all"])
def test_reduced_density_refuses_bad_keeps(keep):
    with pytest.raises(StateError):
        reduced_density(construct_ame43(), keep)


def k_uniform_by_definition(s, k):
    """Every k-party partial trace, summed by its definition, is 1/d^k on
    the diagonal and zero off it."""
    mixed = Amp(terms={Fraction(0): Fraction(1, s.d ** k)})
    return all(all(a.equals(mixed if i == j else Amp.zero())
                   for (i, j), a in partial_trace_by_definition(s, keep).items())
               for keep in itertools.combinations(range(s.n), k))


# the supports the oracle below draws from, each with its base amplitudes
ORACLE_SUPPORTS = {
    "phased-3": lambda: construct_ame5_phased(3),
    "ame43": lambda: construct_ame43().to_sparse(),
    "ghz-4-3": lambda: construct_ghz(4, 3).to_sparse(),
    "parity": lambda: SparseState(
        3, 2, {r: Amp.one() for r in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]},
        scale2=4),
    # d rows, but site 0 reads 0 on both: its diagonal alone shows that the
    # state is not 1-uniform, as N > 2k leaves no complementary 1-site trace
    "uneven": lambda: SparseState(3, 2, {(0, 0, 0): Amp.one(), (0, 1, 1): Amp.one()},
                                  scale2=2),
    "unequal-moduli": UNIFORMITY_CASES["unequal-moduli"],
}
ORACLE_KINDS = ["base", "diagonal", "phase", "modulus", "scale2"]


def oracle_state(base, order, turns, real, kind, marked, change):
    """base's rows in the given order, under the local diagonal whose site p
    multiplies symbol x by w_6^turns[p][x] (as real turns, offset by 0.01,
    when real is true; no diagonal for kind "base"), then changed by kind
    at the marked row: one phase times w_6^change, one amplitude doubled
    with scale2 kept the squared norm, or scale2 doubled."""
    terms = {}
    for idx in order:
        turn = Fraction(sum(turns[p][x] for p, x in enumerate(idx)), 6)
        phase = Phase(float(turn) + 0.01) if real else Phase(turn)
        terms[idx] = base.terms[idx] * (phase if kind != "base" else ONE)
    scale2 = base.scale2
    if kind == "phase":
        terms[marked] = terms[marked] * root_of_unity(6, change)
    elif kind == "modulus":
        scale2 += 3 * terms[marked].polar()[0] ** 2
        terms[marked] = terms[marked].scaled(2)
    elif kind == "scale2":
        scale2 *= 2
    return SparseState(base.n, base.d, terms, scale2=scale2)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_SUPPORTS)),
       draws=st.lists(st.tuples(st.integers(0, 2 ** 16), st.booleans(), st.booleans(),
                                st.sampled_from(ORACLE_KINDS), st.integers(0, 10 ** 3),
                                st.integers(1, 5)), min_size=2, max_size=2))
# the phased support as built, then with one phase changed
@example(name="phased-3", draws=[(0, False, False, "base", 0, 1),
                                 (1, False, False, "phase", 5, 1)])
# real turns, then one phase changed in another term order
@example(name="phased-3", draws=[(0, False, True, "diagonal", 0, 1),
                                 (1, True, True, "phase", 5, 1)])
# equal moduli, then a wrong scale2 that only the one diagonal check shows
@example(name="ame43", draws=[(0, False, False, "base", 0, 1),
                              (1, False, False, "scale2", 0, 1)])
# unequal moduli: 1-uniform, then a wrong scale2 that only the diagonal shows
@example(name="unequal-moduli", draws=[(0, False, False, "base", 0, 1),
                                       (1, False, False, "scale2", 0, 1)])
# equal moduli, normalized, but one plan's kept tuples are uneven
@example(name="uneven", draws=[(0, False, False, "base", 0, 1),
                               (1, True, False, "diagonal", 0, 1)])
def test_uniformity_matches_the_definition_on_states_sharing_a_support(name, draws):
    # two states in sequence on one support: the second reuses the trace
    # plans the first built, in the same or another term order, and must
    # read its own phases, moduli and scale2 only
    base = ORACLE_SUPPORTS[name]()
    rows = list(base.terms)
    for seed, shuffle, real, kind, marked, change in draws:
        rng = random.Random(seed)
        order = rng.sample(rows, len(rows)) if shuffle else rows
        turns = [[rng.randrange(6) for _ in range(base.d)] for _ in range(base.n)]
        s = oracle_state(base, order, turns, real, kind, rows[marked % len(rows)], change)
        levels = [k_uniform_by_definition(s, k) for k in range(1, s.n // 2 + 1)]
        assert [is_k_uniform(s, k) for k in range(1, s.n // 2 + 1)] == levels
        want = levels.index(False) if False in levels else len(levels)
        assert uniformity(s) == uniformity_bottom_up(s) == want


def test_second_state_on_a_support_reuses_its_trace_plans(monkeypatch):
    states._support_of.cache_clear()
    built = []
    build = states._trace_plan
    monkeypatch.setattr(states, "_trace_plan",
                        lambda cols, d, keep: built.append(keep) or build(cols, d, keep))
    phased = construct_ame5_phased(5)
    rng = random.Random(3)
    first, second = (oracle_state(phased, list(phased.terms),
                                  [[rng.randrange(6) for _ in range(5)] for _ in range(5)],
                                  False, "diagonal", None, 0) for _ in range(2))
    assert uniformity(first) == 2
    assert sorted(built) == list(itertools.combinations(range(5), 2))
    # the second state gets the first one's support, and builds no plan
    assert uniformity(second) == 2
    assert len(built) == 10
    assert second._support is first._support
    assert states._support_of.cache_info()[:2] == (1, 1)


def test_polar_stays_in_input_field():
    # w_1009 * (1 + w_3) = w_1009 * w_6 is one root of unity of order 6054;
    # a free numerical guess of the turn leaves that field entirely
    a = Amp(terms={Fraction(1, 1009): Fraction(1),
                   Fraction(1, 3) + Fraction(1, 1009): Fraction(1)})
    start = time.perf_counter()
    got = a.polar()
    assert time.perf_counter() - start < 1.0
    assert got == (1, Phase(Fraction(1, 6) + Fraction(1, 1009)))


MINIMAL_BASES = {"ame43": construct_ame43, "linear5-d5": lambda: ame_linear_5(5),
                 "ame64": construct_ame64}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MINIMAL_BASES)), data=st.data())
def test_as_minimal_agrees_on_both_state_classes(name, data):
    # a decorated minimal-support state reads back with its k, support and
    # phases from either class; exact turns are kept, float ones within tolerance
    base = MINIMAL_BASES[name]()
    rows = sorted(base.phases)
    picked = data.draw(st.lists(st.sampled_from(rows), max_size=6, unique=True))
    turns = st.one_of(st.integers(0, 359).map(lambda t: Phase(Fraction(t, 360))),
                      st.floats(0, 1, exclude_max=True).map(Phase))
    s = with_phases(base, {r: data.draw(turns) for r in picked})
    for m in (s.as_minimal(), s.to_sparse().as_minimal()):
        assert (m.n, m.d, m.k) == (base.n, base.d, base.k)
        assert m.phases.keys() == s.phases.keys()
        for r, p in s.phases.items():
            assert m.phases[r] == p if p.is_exact else m.phases[r].close_to(p)
    # the last symbols of two rows swapped: the same size, not index unity
    a, b = rows[0], next(r for r in rows if r[-1] != rows[0][-1])
    swapped = dict(s.phases)
    swapped[a[:-1] + b[-1:]], swapped[b[:-1] + a[-1:]] = swapped.pop(a), swapped.pop(b)
    bad = MinimalSupportState(s.n, s.d, s.k, swapped, check=False)
    assert bad.as_minimal() is None and bad.to_sparse().as_minimal() is None
    # one amplitude of another modulus
    sp = s.to_sparse()
    sp.terms[a] = sp.terms[a].scaled(2)
    assert sp.as_minimal() is None


def test_global_phase_detection():
    s = construct_ame43()
    g = root_of_unity(12, 5)
    rotated = with_phases(s, {idx: g for idx in s.support})
    got = states_equal_up_to_global_phase(s, rotated)
    # returned phase g satisfies first-state = g * second-state
    assert got is not None and got.close_to(g.conj())
    decorated = with_phases(s, {(0, 0, 0, 0): root_of_unity(3, 1)})
    assert states_equal_up_to_global_phase(s, decorated) is None
    # 1 + w_8 is no rational times a root of unity: its phase is read in floats
    a = Amp(terms={Fraction(0): Fraction(1), Fraction(1, 8): Fraction(1)})
    x = SparseState(2, 2, {(0, 0): a, (1, 1): a}, scale2=4)
    y = SparseState(2, 2, {i: a * g for i in x.terms}, scale2=4)
    assert a.polar() is None
    assert states_equal_up_to_global_phase(y, x).close_to(g)


def _minimal_pairs():
    rng = random.Random(21)
    base = ame_linear_5(5)
    decorated = with_phases(base, {idx: root_of_unity(360, rng.randrange(360))
                                   for idx in rng.sample(sorted(base.phases), 4)})
    shift = LocalOperator([SiteOperator.permutation([(a + c) % 5 for a in range(5)])
                           for c in (1, 0, 1, 2, 3)])  # adds a codeword
    rotate = LocalOperator([SiteOperator.identity(5)] * 5,
                           global_phase=root_of_unity(360, 77))
    monomial = LocalOperator([SiteOperator.monomial(
        rng.sample(range(5), 5), [root_of_unity(360, rng.randrange(360))
                                  for _ in range(5)]) for _ in range(5)])
    real = with_phases(decorated, {(0,) * 5: Phase(0.3)})
    return {
        "global-phase": (rotate.apply(decorated), decorated),
        "monomial-image": (monomial.apply(decorated), decorated),
        "decoration": (decorated, base),
        "permuted-support": (shift.apply(base), rotate.apply(base)),
        "permuted-decorated": (shift.apply(decorated), decorated),
        "other-d": (base, ame_linear_5(7)),
        "other-n": (construct_ame43(), construct_ame44()),
        "float-turn": (rotate.apply(real), real),
        "mixed": (real, decorated),
    }


@pytest.mark.parametrize("case", sorted(_minimal_pairs()))
def test_global_phase_of_minimal_states_matches_sparse_forms(case):
    a, b = _minimal_pairs()[case]
    got = states_equal_up_to_global_phase(a, b)
    assert got == states_equal_up_to_global_phase(a.to_sparse(), b.to_sparse())
    proportional = case in ("global-phase", "permuted-support", "float-turn")
    assert (got is not None) == proportional


def test_global_phase_after_unscaled_layer():
    # raw amplitudes pick up sqrt(d) factors per Fourier site; the
    # comparison must normalize through scale2
    s = construct_ame43()
    layer = LocalOperator([SiteOperator.butson(fourier(3))] * 4)
    image = layer.apply(s)
    assert image.scale2 == 9 * 81
    assert states_equal_up_to_global_phase(image, s) is not None


def test_support_count_and_uniformity_of_sparse():
    s = construct_ame5_phased(5)
    assert support_count(s) == 125
    assert not is_minimal_support(s, 2)


def test_construct_linear_needs_mds_pairs():
    # repeating a direction kills the index-unity property
    with pytest.raises(StateError):
        construct_linear(5, [[1, 0], [0, 1], [1, 1], [2, 1], [1, 1]])


@pytest.mark.parametrize("d", [0, 1])
def test_infer_k_rejects_dimensions_below_two(d):
    # d^k never grows past 1 here, so a search for k by powers would not end
    terms = [{"idx": [i], "phase": ONE.to_json()} for i in range(2)]
    with pytest.raises(StateError):
        MinimalSupportState.from_json({"n": 1, "d": d, "terms": terms})


def test_infer_k_reads_exact_powers_only():
    for d in range(2, 10):
        for k in range(7):
            assert _infer_k(d, d ** k) == k
            if k:
                with pytest.raises(StateError):
                    _infer_k(d, d ** k + 1)
    with pytest.raises(StateError):
        _infer_k(3, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_tables_satisfy_the_field_axioms(q):
    add, mul = _field_tables(q)
    elems = range(q)
    assert all(add[0][a] == a and mul[1][a] == a and mul[0][a] == 0 for a in elems)
    assert all(add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
               for a in elems for b in elems)
    assert all(any(add[a][b] == 0 for b in elems) for a in elems)
    assert all(any(mul[a][b] == 1 for b in elems) for a in elems if a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_tables_label_the_polynomial_basis():
    # x = label p; the modulus is the first monic irreducible in label order
    assert _field_tables(4)[1][2][2] == 3  # x^2 = x + 1
    assert _field_tables(8)[1][2][4] == 3  # x^3 = x + 1
    assert _field_tables(9)[1][3][3] == 2  # x^2 = -1
    assert _field_tables(7)[1] == [[a * b % 7 for b in range(7)] for a in range(7)]


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12])
def test_construct_linear_rejects_non_prime_powers(q):
    with pytest.raises(StateError):
        construct_linear(q, [[1, 0], [0, 1], [1, 1]])


def test_construct_linear_rejects_empty_coefficients():
    # no site rows: there is no first row to read the free-index count from
    with pytest.raises(StateError):
        construct_linear(5, [])


def test_construct_linear_rejects_bad_coefficient_rows():
    with pytest.raises(StateError):
        construct_linear(4, [[1, 0], [0, 1], [1, 4]])
    with pytest.raises(StateError):
        construct_linear(5, [[1, 0], [0, 1], [1, 1], [1, 2], [1]])


# The GF(4) arithmetic and construction loops that built AME(4,4) and
# AME(6,4) before both became construct_linear calls: elements 0..3,
# addition XOR, multiplication from x^2 = x + 1.
_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _reference_ame44_rows():
    m1 = [[i ^ j for j in range(4)] for i in range(4)]
    m2 = [[i ^ _GF4_MUL[2][j] for j in range(4)] for i in range(4)]
    return [(i, j, m1[i][j], m2[i][j]) for i in range(4) for j in range(4)]


def _reference_ame64_rows():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 3, 2]]
    out = []
    for x in itertools.product(range(4), repeat=3):
        idx = []
        for row in rows:
            acc = 0
            for c, xi in zip(row, x):
                acc ^= _GF4_MUL[c][xi]
            idx.append(acc)
        out.append(tuple(idx))
    return out


def _reference_mod_d_rows(d, coeffs):
    return [tuple(sum(c * xi for c, xi in zip(row, x)) % d for row in coeffs)
            for x in itertools.product(range(d), repeat=len(coeffs[0]))]


@pytest.mark.parametrize("make,rows", [
    (construct_ame44, _reference_ame44_rows),
    (construct_ame64, _reference_ame64_rows),
    (construct_ame43, lambda: _reference_mod_d_rows(3, [[1, 0], [0, 1], [1, 1], [2, 1]])),
    (lambda: ame_linear_5(5),
     lambda: _reference_mod_d_rows(5, [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]])),
    (lambda: ame_linear_5(7),
     lambda: _reference_mod_d_rows(7, [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]])),
], ids=["ame44", "ame64", "ame43", "linear5-5", "linear5-7"])
def test_named_constructors_keep_their_rows_and_order(make, rows):
    s = make()
    assert list(s.phases) == rows()
    assert all(p == ONE for p in s.phases.values())
