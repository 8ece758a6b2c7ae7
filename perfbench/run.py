#!/usr/bin/env python3
"""Known-answer decision benchmark for ameslocc.

Usage, from the repository root:

    python3 perfbench/run.py --workload lm-ladder --seed 1 --seconds 30 --trace 0

Workloads (see ladder.py for the inputs and their known answers):

* lm-ladder  -- decide_slocc on 2k < N pairs of the five-party linear family
  at d = 5 and 7: support search, mod-1 solves and uniformity;
* ame-ladder -- decide_slocc on N = 2k pairs (AME(4,3), AME(4,4) behind an
  F2 x F2 layer, AME(6,4) family) and on the phased-versus-linear
  five-party pairs: W-statistic prefilters, uniformity, the reduction
  pipeline;
* bh-census  -- enumerate_bh(d) for d = 3..5 and monomially_equivalent on
  BH(d,d) pairs up to d = 6: Butson and cyclotomic arithmetic only.

A run builds the inputs from the seed in a single process with one thread
and times each call.  With --trace 0 it runs a fixed number of batches of
fresh inputs, round(--seconds / BATCH_SECONDS[workload]) and at least one,
and prints the end-to-end metrics.  The ops a run attempts, and so its
attempted and failed counts, depend only on its arguments and not on the
machine's speed.  With --trace 1 it runs batch 0 untraced and then traced,
repeating that pair while it fits in --seconds, and prints the per-layer
metrics.  Every result is checked against its known answer; the last line
of output is one JSON object with keys correct, attempted, failed and
metrics.

End-to-end times are reported at a fixed reference speed (clock.py).  A
fixed loop of exact arithmetic is timed right before and right after every
timed call, and every SAMPLE_EVERY_S seconds during it from a SIGALRM
handler.  The call's time, less the handler's, is scaled by REF_SECONDS
over the mean of those samples.  On a shared machine whose speed swings by
a quarter within seconds this takes most of the swing out of the
comparison between runs; the unscaled times are printed alongside.  The
run and its set-up probes are pinned to one CPU, since the reference only
measures the CPU it runs on.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import monotonic, perf_counter

from clock import Sampler, reference, scaled

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_PROBES = 11  # cold set-ups per untraced run; setup_s and import_s are their medians
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_MAX = 90  # and is at most this: higher ones rest on too few samples to repeat
# Nominal seconds per batch.  An untraced run executes round(--seconds / this)
# batches, at least one, so the ops it attempts depend only on its arguments
# and not on the machine's speed.  With the set-up probes, a run then takes
# about --seconds on a 2-vCPU shared VM at 2.0 GHz.
BATCH_SECONDS = {"lm-ladder": 14.5, "ame-ladder": 24.0, "bh-census": 2.5}
HARD_LIMIT_S = 120  # no further batch starts after this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s", "import_s": "s", "wall_s": "s",
    "equiv_s.p50": "s", "equiv_s.tail": "s",
    "inequiv_s.p50": "s", "inequiv_s.tail": "s",
    "decided_ratio": "ratio", "correct_ratio": "ratio", "peak_rss_mb": "MB",
}

SPAN_LAYERS = (
    "equivalence.search", "modsolve",
    "states.uniformity", "states.reduced_density", "states.as_minimal",
    "states.to_sparse", "states.equal_up_to_phase", "phases.is_zero",
    "equivalence.prefilter.cond_monomial", "equivalence.prefilter.cond_butson",
    "butson.enumerate_bh", "butson.monomially_equivalent",
    "operators.apply.monomial", "operators.apply.dense", "reductions.pipeline",
)
LAYER_COUNTS = (
    "equivalence.search.sigmas", "equivalence.search.budget_exhausted",
    "equivalence.prefilter.cond_monomial.rejects",
    "equivalence.prefilter.cond_butson.rejects",
    "equivalence.butson_layers.tried",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lm-ladder", "ame-ladder", "bh-census"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# timing

def probe_setup(workload, seed):
    """One cold set-up in a fresh interpreter, as (setup, import) pairs of
    (raw, scaled) seconds."""
    before = reference()
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    after = reference()
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["module"].startswith(SRC + os.sep):
        raise RuntimeError("probe imported ameslocc from " + report["module"])
    setup = report["ready"] - t0 - report["spent"]
    return ((setup, scaled(setup, before, *report["samples"], after)),
            (report["import_s"], scaled(report["import_s"], *report["import_samples"])))


@dataclass
class Row:
    """One timed op: its result, the check of that result, and its time."""
    op: object
    result: object
    seconds: float
    scaled: float
    outcome: object = None
    decided: bool = False
    status: str = ""

    def check(self):
        self.outcome, self.decided, self.status = ladder.check(self.op, self.result)
        return self


def built(ops):
    """Move a freshly built batch out of the cyclic collector's reach, so
    that holding the benchmark's inputs does not slow the calls under test."""
    gc.collect()
    gc.freeze()
    return ops


def call(op):
    # module attributes are looked up per call so that traced runs see the
    # rebound names
    if op.kind == "decide":
        return equivalence.decide_slocc(*op.args)
    if op.kind == "census":
        return butson.enumerate_bh(*op.args)
    return butson.monomially_equivalent(*op.args)


def run_batch(ops, tracer=None, between=None, sample=True):
    """Time each op once.  between() runs untimed before each op.  With
    sample false the reference is timed only around each op, not during it,
    so that traced spans hold no sampling time.  The rows are not checked
    yet."""
    rows = []
    for index, op in enumerate(ops):
        if between is not None:
            between()
        before = reference()
        if tracer is not None:
            tracer.op_index = index
            tracer.enter("op")
        if sample:
            SAMPLER.start()
        t = perf_counter()
        try:
            result = call(op)
        except Exception as e:  # a raising op is a failed op; the run goes on
            result = e
        ticks, spent = SAMPLER.stop() if sample else ((), 0.0)
        dt = perf_counter() - t - spent
        if tracer is not None:
            tracer.exit()
        rows.append(Row(op, result, dt, scaled(dt, before, *ticks, reference())))
    return rows


def checked(rows):
    return [row.check() for row in rows]


def is_sound(rows):
    return all(row.status != "broken" for row in rows)


def digest(rows):
    text = json.dumps([[row.op.id, str(row.outcome)] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def batch_count(args):
    return max(1, round(args.seconds / BATCH_SECONDS[args.workload]))


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """(percentile, value): the highest whole percentile up to TAIL_MAX,
    nearest rank, with at least TAIL_BEYOND samples above it; the median if
    there are too few."""
    v = sorted(values)
    n = len(v)
    for p in range(TAIL_MAX, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, v[rank - 1]
    return 50, statistics.median(v)


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def report_rows(rows, out):
    """List undecided and failed ops by id; return the failed count."""
    failed = [row for row in rows if row.status != "ok"]
    undecided = [row.op.id for row in rows if row.status == "ok" and not row.decided]
    out.append("undecided (%d): %s" % (len(undecided), " ".join(undecided) or "-"))
    out.append("failed (%d): %s" % (len(failed), "; ".join(
        "%s [%s] expected %s (%s) got %s" % (row.op.id, row.status, row.op.expect,
                                             row.op.basis, row.outcome)
        for row in failed) or "-"))
    return len(failed)


# ---------------------------------------------------------------------------
# the two kinds of run

def measure(args, first):
    """Untraced run: end-to-end metrics.

    The set-up probes are spread evenly over the run, so that their median
    does not hang on one moment's machine speed.
    """
    start = perf_counter()
    probes = []

    def probe_if_due():
        if len(probes) < SETUP_PROBES and \
                perf_counter() >= start + len(probes) * args.seconds / SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))

    planned = batch_count(args)
    rows, lines = [], []
    for index in range(planned):
        if index and perf_counter() - start > HARD_LIMIT_S:
            lines.append("stopped after %d of %d batches: over %d s" % (
                index, planned, HARD_LIMIT_S))
            break
        ops = first if index == 0 else built(ladder.batch(args.workload, args.seed, index))
        rows += checked(run_batch(ops, between=probe_if_due))
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))

    lines[:0] = ["workload %s seed %d: %d ops in %d batches of %d" % (
        args.workload, args.seed, len(rows), len(rows) // len(first), len(first)),
        "batch 0 outcome digest %s" % digest(rows[:len(first)])]
    metrics, raw = {}, {}
    for i, name in enumerate(("setup_s", "import_s")):
        raw[name] = statistics.median(p[i][0] for p in probes)
        metrics[name] = statistics.median(p[i][1] for p in probes)
    by_family = {}
    for row in rows:
        by_family.setdefault(row.op.family, []).append(row)
    # one batch's worth of each op family at that family's mean time
    for key, target in (("seconds", raw), ("scaled", metrics)):
        target["wall_s"] = sum(statistics.fmean(getattr(r, key) for r in by_family[op.family])
                               for op in first)
    lines.append("family mean scaled s: " + " ".join(
        "%s=%.4f" % (f, statistics.fmean(r.scaled for r in members))
        for f, members in sorted(by_family.items())))
    for cls in ("equiv", "inequiv"):
        members = [row for row in rows if row.op.answer_class == cls]
        for key, target in (("seconds", raw), ("scaled", metrics)):
            times = [getattr(row, key) for row in members]
            p, target[cls + "_s.tail"] = tail(times)
            target[cls + "_s.p50"] = statistics.median(times)
        lines.append("%s_s: n=%d, tail at p%d" % (cls, len(members), p))
    lines.append("unscaled: " + " ".join("%s=%.4f" % kv for kv in raw.items()))
    metrics["decided_ratio"] = sum(row.decided for row in rows) / len(rows)
    metrics["correct_ratio"] = sum(row.status == "ok" for row in rows) / len(rows)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = report_rows(rows, lines)
    return (lines, is_sound(rows), len(rows), failed,
            {k: (metrics[k], unit) for k, unit in END_TO_END.items()})


def traced(args, first):
    """Traced run: batch 0 untraced, then traced, while the pair fits."""
    import spans
    tracer = spans.Tracer()
    t_end = perf_counter() + args.seconds
    plain_walls, traced_walls, passes = [], [], []
    reference_outcomes = None
    lines = []
    while True:
        t_pair = perf_counter()
        plain = checked(run_batch(first, sample=False))
        tracer.new_pass()
        tracer.install()
        try:
            rows = run_batch(first, tracer, sample=False)
        finally:
            tracer.uninstall()
        checked(rows)
        plain_walls.append(sum(row.scaled for row in plain))
        traced_walls.append(sum(row.scaled for row in rows))
        outcomes = [row.outcome for row in plain + rows]
        if reference_outcomes is None:
            reference_outcomes = outcomes[:len(first)]
            failed = report_rows(rows, lines)
            correct = is_sound(rows)
        if outcomes != reference_outcomes * 2:
            correct = False
            lines.append("outcomes differ between repeats of batch 0")
        reported = sum(butson_tuples(row.result) for row in rows)
        c = tracer.counts
        if c["equivalence.search.sigmas"] != c["engine.sigmas_tested"] or \
                c["equivalence.butson_layers.tried"] != reported:
            correct = False
            lines.append("cross-check failed: sigmas %d traced vs %d reported, "
                         "butson tuples %d traced vs %d reported" % (
                             c["equivalence.search.sigmas"], c["engine.sigmas_tested"],
                             c["equivalence.butson_layers.tried"], reported))
        passes.append((tracer.self_s, tracer.calls, tracer.counts, len(tracer.cyclotomic_q)))
        if perf_counter() + (perf_counter() - t_pair) > t_end:
            break

    counts = [(dict(calls), dict(cs), q) for _s, calls, cs, q in passes]
    if any(x != counts[0] for x in counts[1:]):
        correct = False
        lines.append("span counts differ between repeats of batch 0")
    _self_s, calls, cs, q = passes[0]
    metrics = {}
    for name in SPAN_LAYERS:
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (statistics.median(p[0][name] for p in passes), "s")
    metrics["modsolve.solves"] = metrics.pop("modsolve.calls")
    metrics["modsolve.feasible_ratio"] = (
        cs["modsolve.feasible"] / calls["modsolve"] if calls["modsolve"] else 0.0, "ratio")
    del metrics["equivalence.search.calls"]  # resumptions; sigmas are counted below
    for name in LAYER_COUNTS:
        metrics[name] = (cs[name], "count")
    metrics["phases.cyclotomic.distinct_q"] = (q, "count")
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    metrics["src_lines"] = (src_lines(), "lines")
    lines.insert(0, "workload %s seed %d: batch 0 (%d ops) run %d times untraced and "
                 "traced; batch 0 outcome digest %s; untraced %.3f s, traced %.3f s" % (
                     args.workload, args.seed, len(first), len(passes),
                     digest(rows), statistics.median(plain_walls),
                     statistics.median(traced_walls)))
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, "spans-%s-%d.json.gz" % (args.workload, args.seed))
    tracer.dump(dump)
    lines.append("spans: %d written to %s" % (len(tracer.start), os.path.relpath(dump, ROOT)))
    return lines, correct, len(first), failed, metrics


def butson_tuples(result):
    """Butson layer tuples the engine reports for one decide_slocc call."""
    if not isinstance(result, equivalence.EquivalenceCertificate):
        return 0
    details = result.details if isinstance(result.details, dict) else {}
    return details.get("butson_tuples", result.stats.get("butson_tuples", 0))


def main(argv=None):
    global SAMPLER, butson, equivalence, ladder
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ameslocc", "__init__.py")):
        print("perfbench: no ameslocc sources under %s" % SRC, file=sys.stderr)
        return 2
    # the reference loop only measures the speed of the CPU it runs on, so
    # the run and its set-up probes stay on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SAMPLER = Sampler()
    sys.path.insert(0, SRC)
    from ameslocc import butson, equivalence
    import ladder
    first = built(ladder.batch(args.workload, args.seed, 0))
    lines, correct, attempted, failed, metrics = (traced if args.trace else measure)(args, first)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
