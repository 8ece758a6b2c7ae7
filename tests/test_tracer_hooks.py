"""The benchmark's span tracer still finds every name it rebinds.

``perfbench/spans.py`` wraps module-level names of the package for its
traced run.  The tier-1 suite never runs the benchmark, so this installs the
tracer around one five-party decision and checks that the pipeline span is
recorded and that ``uninstall`` restores the original objects.
"""

from pathlib import Path

from ameslocc import phases, reductions
from ameslocc.equivalence import decide_slocc
from ameslocc.states import ame_linear_5, construct_ame5_phased

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_pipeline_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = (reductions.verify_ame5_nonequivalence,
                 reductions.reduced_density, phases.Amp.is_zero)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cert = decide_slocc(construct_ame5_phased(5), ame_linear_5(5))
    finally:
        tracer.uninstall()
    assert cert.verdict == "inequivalent"
    assert tracer.calls["reductions.pipeline"] == 1
    restored = (reductions.verify_ame5_nonequivalence,
                reductions.reduced_density, phases.Amp.is_zero)
    assert all(now is orig for now, orig in zip(restored, originals))
