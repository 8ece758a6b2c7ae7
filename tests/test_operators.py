import random
from fractions import Fraction

import pytest

from ameslocc.butson import fourier
from ameslocc.operators import LocalOperator, OperatorError, SiteOperator
from ameslocc.phases import ONE, Amp, Phase, root_of_unity
from ameslocc.states import (MinimalSupportState, ame_linear_5, construct_ame43,
                             states_equal_up_to_global_phase, with_phases)


def test_permutation_image():
    p = SiteOperator.permutation((2, 0, 1))
    assert (p.sigma[0], p.diag[0]) == (2, ONE)
    assert (p.sigma[2], p.diag[2]) == (1, ONE)


def test_monomial_image_order():
    # diagonal applies before the permutation: |a> -> D[a] |sigma[a]>
    m = SiteOperator.monomial((1, 0), (root_of_unity(4, 1), ONE))
    target, phase = m.sigma[0], m.diag[0]
    assert target == 1 and phase.turn == Fraction(1, 4)


def test_bad_sigma_rejected():
    with pytest.raises(OperatorError):
        SiteOperator.permutation((0, 0, 1))


def test_compose_monomials_stays_monomial():
    a = SiteOperator.monomial((1, 2, 0), [root_of_unity(3, i) for i in range(3)])
    b = SiteOperator.permutation((2, 1, 0))
    c = a.compose_after(b)
    assert c.kind == "monomial"
    for x in range(3):
        mid, p1 = b.sigma[x], b.diag[x]
        out, p2 = a.sigma[mid], a.diag[mid]
        assert (c.sigma[x], c.diag[x]) == (out, p1 * p2)


def test_butson_site_profile():
    site = SiteOperator.butson(fourier(3))
    s, ok = site.nonzero_profile()
    assert ok and s == 3
    assert site.scale == 3


def test_permutation_profile():
    s, ok = SiteOperator.identity(4).nonzero_profile()
    assert ok and s == 1


def test_general_compose_scale_multiplies():
    site = SiteOperator.butson(fourier(2))
    twice = site.compose_after(site)
    assert twice.kind == "general"
    assert twice.scale == 4
    # F2 * F2 = 2 * Id as raw matrices
    assert complex(twice.matrix[0][0]) == pytest.approx(2)
    assert complex(twice.matrix[0][1]) == pytest.approx(0)


def test_local_apply_monomial_keeps_exact_form():
    s = construct_ame43()
    op = LocalOperator([SiteOperator.monomial((1, 2, 0), [ONE] * 3)
                        for _ in range(4)])
    out = op.apply(s)
    assert isinstance(out, MinimalSupportState)
    assert sorted(out.support) == sorted(
        tuple((x + 1) % 3 for x in idx) for idx in s.support)


def test_local_apply_matches_composition():
    s = construct_ame43()
    f = LocalOperator([SiteOperator.butson(fourier(3))] * 4)
    perm = LocalOperator([SiteOperator.permutation((1, 2, 0))] * 4)
    seq = perm.apply(f.apply(s))
    combined = perm.compose_after(f).apply(s)
    assert states_equal_up_to_global_phase(seq, combined) is not None
    assert seq.scale2 == combined.scale2


def test_global_phase_applies():
    s = construct_ame43()
    op = LocalOperator([SiteOperator.identity(3)] * 4,
                       global_phase=root_of_unity(6, 1))
    out = op.apply(s)
    g = states_equal_up_to_global_phase(out, s)
    assert g is not None and g.close_to(root_of_unity(6, 1))


def chained_image(op, state):
    """Row by row: sigma(I) with phase w_I * g * prod_j theta_j(I_j)."""
    out = {}
    for idx, w in state.phases.items():
        p = w * op.global_phase
        for a, site in zip(idx, op.sites):
            p = p * site.diag[a]
        out[tuple(site.sigma[a] for a, site in zip(idx, op.sites))] = p
    return out


@pytest.mark.parametrize("case", ["360", "float-diagonal", "global-phase"])
def test_monomial_apply_matches_chained_products(case):
    rng = random.Random(case)
    s = ame_linear_5(5)
    s = with_phases(s, {idx: root_of_unity(16, rng.randrange(16))
                        for idx in rng.sample(sorted(s.phases), 3)})
    sites = []
    for _ in range(5):
        sigma = rng.sample(range(5), 5)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(5)]))
    g = ONE
    if case == "float-diagonal":
        sites[2].diag = sites[2].diag[:3] + (Phase(0.123456789),) + sites[2].diag[4:]
    elif case == "global-phase":
        g = root_of_unity(7, 3)
    op = LocalOperator(sites, global_phase=g)
    got = op.apply(s)
    want = chained_image(op, s)
    assert isinstance(got, MinimalSupportState) and got.phases.keys() == want.keys()
    if case == "float-diagonal":
        assert not got.is_exact
        assert all(got.phases[i].close_to(p) for i, p in want.items())
    else:
        assert got.phases == want


def test_site_count_mismatch():
    with pytest.raises(OperatorError):
        LocalOperator.identity(4, 3).compose_after(LocalOperator.identity(3, 3))


def test_site_matrices_are_written_exactly():
    # Butson and general entries use the integer form of Amp.to_json
    butson = SiteOperator.butson(fourier(3))
    general = butson.compose_after(butson)  # 3 times a permutation
    assert butson.to_json()["matrix"][1][1] == {"q": 3, "counts": [[1, 1]], "den": 1}
    assert general.kind == "general"
    for site in (butson, general):
        rows = site.to_json()["matrix"]
        assert all(Amp.from_json(obj).equals(a)
                   for row_obj, row in zip(rows, site.matrix) for obj, a in zip(row_obj, row))


def test_to_json_shapes():
    op = LocalOperator([SiteOperator.monomial((1, 0), (ONE, ONE)),
                        SiteOperator.butson(fourier(2))])
    obj = op.to_json()
    assert obj["sites"][0]["sigma"] == [1, 0]
    assert "matrix" in obj["sites"][1]
