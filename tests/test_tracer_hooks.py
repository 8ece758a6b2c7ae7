"""The benchmark's span tracer still finds every name it rebinds.

``perfbench/spans.py`` wraps module-level names of the package for its
traced run.  The tier-1 suite never runs the benchmark, so this installs the
tracer around one five-party decision and checks that the pipeline span is
recorded and that ``uninstall`` restores the original objects, and that
the counts it reads agree with the engine's own.
"""

import random
from fractions import Fraction
from pathlib import Path

from ameslocc import phases, reductions
from ameslocc.equivalence import decide_slocc, lm_match
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import root_of_unity
from ameslocc.states import (ame64_phi, ame_linear_5, construct_ame5_phased,
                             with_phases)

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
    cert, tracer = traced(
        monkeypatch, lambda: decide_slocc(construct_ame5_phased(5), ame_linear_5(5)))
    assert cert.verdict == "inequivalent"
    assert tracer.calls["reductions.pipeline"] == 1
    restored = (reductions.verify_ame5_nonequivalence,
                reductions.reduced_density, phases.Amp.is_zero)
    assert all(now is orig for now, orig in zip(restored, originals))


def test_tracer_counts_one_solve_per_sigma(monkeypatch):
    s = ame_linear_5(5)
    rng = random.Random(99)
    dst = with_phases(s, {idx: root_of_unity(360, rng.randrange(360))
                          for idx in sorted(s.phases)})
    cert, tracer = traced(monkeypatch, lambda: lm_match(s, dst))
    assert cert.verdict == "inequivalent"
    assert tracer.calls["modsolve"] == tracer.counts["equivalence.search.sigmas"] \
        == cert.stats["sigmas_tested"] > 0


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
