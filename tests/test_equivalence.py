import random
from fractions import Fraction

import pytest

from ameslocc.butson import fourier, tensor_butson
from ameslocc.equivalence import (EquivalenceError, automorphisms, butson_match,
                                  compute_w, cond_butson, cond_monomial,
                                  decide_slocc, family_classes, lm_match,
                                  lm_automorphism_sigmas, necessary_condition)
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import ONE, Phase, root_of_unity
from ameslocc.states import (ame64_phi, ame_linear_5, construct_ame43,
                             construct_ame44, construct_ame5_phased,
                             construct_ame64, construct_ghz,
                             states_equal_up_to_global_phase, with_phases)


def random_monomial(n, d, rng):
    sites = []
    for _ in range(n):
        sigma = list(range(d))
        rng.shuffle(sigma)
        diag = [root_of_unity(2 * d, rng.randrange(2 * d)) for _ in range(d)]
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


def test_budget_gives_inconclusive():
    s = construct_ame44()
    cert = lm_match(s, s, max_nodes=1)
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason


def test_shape_mismatch_raises():
    with pytest.raises(EquivalenceError):
        lm_match(construct_ame43(), construct_ame44())


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


def test_necessary_condition_full_sigma():
    base = construct_ame64()
    a = with_phases(base, {(0,) * 6: root_of_unity(8, 1)})
    ident = [list(range(4)) for _ in range(6)]
    assert necessary_condition(a, a, ident)[0]


def test_conjugate_decorations_have_no_monomial_witness():
    base = construct_ame64()
    a = with_phases(base, {(0,) * 6: Phase(Fraction(1, 8))})
    b = with_phases(base, {(0,) * 6: Phase(Fraction(7, 8))})
    cert = lm_match(a, b, prefilter=False)
    assert cert.verdict == "inequivalent"
    assert cert.reason == "search-exhausted"


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
    for _ in range(3):
        cert = lm_match(base, decorate(base))
        assert cert.verdict == "inequivalent"
        assert cert.reason == "search-exhausted"


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
    cert = butson_match(s, s, branches=("butson",))
    assert cert.equivalent
    assert cert.reason == "butson-witness"
    assert cert.stats["butson_tuples"] == 1
    replay = cert.witness.apply(s)
    g = states_equal_up_to_global_phase(replay, s)
    assert g is not None


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


def test_butson_match_outside_regime():
    # composed 9-level 2-uniform state: d = 9 is outside the small regime
    from ameslocc.states import tensor_compose
    c = tensor_compose(construct_ame43(), construct_ame43())
    cert = butson_match(c, c, branches=())
    assert cert.verdict == "inconclusive"
    assert cert.reason == "outside-small-regime"


def test_decide_slocc_uniformity_split():
    cert = decide_slocc(construct_ghz(4, 3), construct_ame43())
    assert cert.verdict == "inequivalent"
    assert cert.reason == "different-uniformity"


def test_decide_slocc_five_party_pipeline():
    cert = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    assert cert.verdict == "inequivalent"
    assert cert.reason == "reduction-pipeline"
    assert cert.details["all_passed"]


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
