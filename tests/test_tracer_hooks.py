"""The benchmark's span tracer still finds every name it rebinds.

``perfbench/spans.py`` wraps module-level names of the package for its
traced run.  The tier-1 suite never runs the benchmark, so this installs the
tracer around the five-party pipeline and decisions, and checks that the
pipeline span is recorded and that ``uninstall`` restores the original
objects, and that the counts it reads agree with the engine's own.
"""

import random
from fractions import Fraction
from pathlib import Path

from ameslocc import phases, reductions
from ameslocc.butson import fourier
from ameslocc.equivalence import _row_plan, decide_slocc, lm_match
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import Phase, root_of_unity
from ameslocc.states import (ame64_phi, ame_linear_5, construct_ame5_phased,
                             construct_linear, with_phases)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced(monkeypatch, call):
    """(result of call(), tracer) with the tracer installed around call."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return call(), tracer
    finally:
        tracer.uninstall()


def test_tracer_wraps_and_restores_pipeline_names(monkeypatch):
    originals = (reductions.verify_ame5_nonequivalence,
                 reductions.reduced_density, phases.Amp.is_zero)
    # the d-only certificate is built once per d; start without it
    reductions._ame5_certificate.cache_clear()
    report, tracer = traced(monkeypatch, lambda: reductions.verify_ame5_nonequivalence(5))
    assert report["all_passed"]
    assert tracer.calls["reductions.pipeline"] == 1
    # one reduction, for the rho345 lemma; a repeat reuses the certificate
    assert tracer.calls["states.reduced_density"] == 1
    report, tracer = traced(monkeypatch, lambda: reductions.verify_ame5_nonequivalence(5))
    assert tracer.calls["reductions.pipeline"] == 1
    assert tracer.calls["states.reduced_density"] == 0
    # decide_slocc settles the five-party pair by the LU invariant: it
    # reaches neither the pipeline nor a density matrix
    cert, tracer = traced(
        monkeypatch, lambda: decide_slocc(construct_ame5_phased(5), ame_linear_5(5)))
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant")
    assert tracer.calls["reductions.pipeline"] == tracer.calls["states.reduced_density"] == 0
    restored = (reductions.verify_ame5_nonequivalence,
                reductions.reduced_density, phases.Amp.is_zero)
    assert all(now is orig for now, orig in zip(restored, originals))


def test_tracer_counts_one_solve_per_solved_sigma(monkeypatch):
    # the sigmas after the first are screened by the carried-over cokernel
    # test, so only the solved ones reach the modsolve span
    s = ame_linear_5(5)
    rows = sorted(s.phases)
    ame64 = ame64_phi(Fraction(1, 16))
    op = LocalOperator([SiteOperator.monomial(
        (1, 2, 3, 0), [root_of_unity(360, 7 * j + a) for a in range(4)]) for j in range(6)])
    pairs = [(ame64, ame64_phi(Fraction(3, 16)), "inequivalent"),
             (with_phases(s, {rows[3]: root_of_unity(16, 1)}),
              with_phases(s, {rows[7]: root_of_unity(16, 5)}), "inequivalent"),
             (ame64, op.apply(ame64), "equivalent")]
    for a, b, verdict in pairs:
        cert, tracer = traced(monkeypatch, lambda: lm_match(a, b))
        stats = cert.stats
        assert cert.verdict == verdict
        assert tracer.calls["modsolve"] == stats["solves"]
        assert tracer.counts["equivalence.search.sigmas"] == stats["sigmas_tested"] \
            == stats["solves"] + stats["coker_rejects"] > 1


def test_tracer_counts_no_sigma_of_the_self_search(monkeypatch):
    # a search asked for a second sigma first finds the support's group by
    # a self-search; that must not go through the module-level
    # _iter_support_sigmas, which the tracer rebinds, or its sigmas would be
    # counted as tested
    _row_plan.cache_clear()
    rng = random.Random(7)
    base = ame_linear_5(7)
    src = with_phases(base, {idx: root_of_unity(360, rng.randrange(360))
                             for idx in base.phases})
    op = LocalOperator([SiteOperator.monomial(
        rng.sample(range(7), 7), [root_of_unity(360, rng.randrange(360)) for _ in range(7)])
        for _ in range(5)])
    rs = construct_linear(7, [[1, a, a * a % 7] for a in range(7)])
    rs_src, rs_dst = (with_phases(rs, {(0,) * 7: Phase(t)})
                      for t in (Fraction(1, 16), Fraction(5, 16)))
    for a, b, verdict in [(src, op.apply(src), "equivalent"),
                          (rs_src, rs_dst, "inequivalent")]:
        assert _row_plan(frozenset(a.phases), a.k).group is None
        cert, tracer = traced(monkeypatch, lambda: lm_match(a, b))
        assert cert.verdict == verdict
        assert _row_plan(frozenset(a.phases), a.k).group is not None
        assert tracer.counts["equivalence.search.sigmas"] == cert.stats["sigmas_tested"] > 1
    assert cert.stats["sigmas_tested"] == 2058


def test_tracer_counts_one_search_when_no_sigma_reaches_dst(monkeypatch):
    # dst is proved by the search's first sigma; when none comes, dst's
    # support is checked after the search, which does not run again
    src, dst = (construct_linear(7, [[1, x] for x in points])
                for points in ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5)))
    cert, tracer = traced(monkeypatch, lambda: decide_slocc(src, dst))
    assert (cert.verdict, cert.reason) == ("inequivalent", "search-exhausted")
    assert tracer.counts["equivalence.search.sigmas"] == cert.stats["sigmas_tested"] == 0
    assert tracer.calls["equivalence.search"] == tracer.calls["equivalence.lm_match"] == 1


def test_tracer_sees_no_monomial_w_ratio_test_at_n_2k(monkeypatch):
    rng = random.Random(1)
    sites = []
    for _ in range(6):
        sigma = list(range(4))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(4)]))
    src = ame64_phi(Fraction(1, 16))
    dst = LocalOperator(sites).apply(ame64_phi(Fraction(3, 16)))
    cert, tracer = traced(monkeypatch, lambda: decide_slocc(src, dst))
    assert cert.verdict == "inequivalent"
    assert tracer.calls["equivalence.prefilter.cond_butson"] == 1
    assert tracer.calls["equivalence.prefilter.cond_monomial"] == 0


def test_exact_minimal_equivalent_decision_builds_no_sparse_state(monkeypatch):
    # the exact witness replay reads the witness's diagonal, src and dst
    # turns as integers, so neither an amplitude dictionary nor an image
    # state is built, and no states are compared
    src = ame64_phi(Fraction(1, 16))
    op = LocalOperator([SiteOperator.monomial(
        (1, 2, 3, 0), [root_of_unity(360, 7 * j + a) for a in range(4)])
        for j in range(6)])
    cert, tracer = traced(monkeypatch, lambda: decide_slocc(src, op.apply(src)))
    assert cert.verdict == "equivalent"
    assert tracer.calls["states.equal_up_to_phase"] == 0
    assert tracer.calls["states.to_sparse"] == 0


def test_tracer_sees_the_uniformity_call_of_a_decision(monkeypatch):
    # decide_slocc looks uniformity up in states at each call; a module-level
    # import in equivalence would bypass the rebound name and hide the span.
    # The LU screen leaves this equivalent Fourier image undecided, so the
    # image's uniformity is read
    s = ame_linear_5(5)
    image = LocalOperator([SiteOperator.identity(5)] * 4
                          + [SiteOperator.butson(fourier(5))]).apply(s)
    cert, tracer = traced(monkeypatch, lambda: decide_slocc(s, image))
    assert (cert.verdict, cert.reason) == ("inconclusive", "no-complete-procedure-for-this-pair")
    assert tracer.calls["states.uniformity"] == 1
    # the screen's head certifies the phased state before any uniformity
    cert, tracer = traced(
        monkeypatch, lambda: decide_slocc(construct_ame5_phased(5), ame_linear_5(5)))
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant")
    assert tracer.calls["states.uniformity"] == 0
