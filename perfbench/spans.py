"""Span tracing for the benchmark's traced run.

The benchmark measures from outside the program: ``Tracer.install`` rebinds
module-level names of ameslocc (functions, and methods on their classes) to
wrappers that record one span per call, and ``uninstall`` puts the originals
back.  A span records its name, start, end, parent span and op index; spans
are kept in flat arrays in memory and written out by ``dump``.  A span's
self time is its duration minus the durations of its direct children.

Counters are recorded at the same boundaries: calls per span name, plus the
named counts that the per-layer metrics need (sigmas yielded, feasible
solves, prefilter rejections, Butson layer tuples tried, and the sigma and
Butson-tuple totals the engine itself reports, for the cross-check).
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

from ameslocc import butson, equivalence, operators, phases, reductions, states


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_index = -1
        self._stack = []  # [span index, summed duration of direct children]
        self._restore = []
        self.new_pass()

    def new_pass(self):
        """Reset the per-pass aggregates (spans are kept)."""
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.cyclotomic_q = set()

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_index)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def exit(self):
        t = perf_counter()
        idx, children = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        name = self.names[self.name[idx]]
        self.self_s[name] += dur - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist()}, fh)

    # -- wrappers -----------------------------------------------------------

    def _rebind(self, owners, attr, wrapper):
        for owner in owners:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _span(self, owners, attr, name, after=None, classify=None):
        """Wrap owners[0].attr in a span and rebind it on every owner."""
        orig = getattr(owners[0], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name if classify is None else classify(args))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result

        self._rebind(owners, attr, wrapper)

    def _search(self):
        """Span each resumption of the support-permutation generator."""
        orig = equivalence._iter_support_sigmas
        tracer = self

        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)
            try:
                while True:
                    tracer.enter("equivalence.search")
                    try:
                        sigma = next(gen)
                    except StopIteration:
                        return
                    except equivalence.EquivalenceError:
                        tracer.counts["equivalence.search.budget_exhausted"] += 1
                        raise
                    finally:
                        tracer.exit()
                    tracer.counts["equivalence.search.sigmas"] += 1
                    yield sigma
            finally:
                gen.close()

        self._rebind([equivalence], "_iter_support_sigmas", wrapper)

    def install(self):
        c = self.counts

        def solved(args, theta):
            c["modsolve.feasible"] += theta is not None

        def rejected(name):
            def after(args, result):
                c[name + ".rejects"] += not result[0]
            return after

        def lm_stats(args, cert):
            c["engine.sigmas_tested"] += cert.stats.get("sigmas_tested", 0)

        def layer(args, result):
            if all(site.kind == "butson" for site in args[0].sites):
                c["equivalence.butson_layers.tried"] += 1

        def apply_kind(args):
            op, state = args[0], args[1]
            if isinstance(state, states.MinimalSupportState) and op.is_monomial:
                return "operators.apply.monomial"
            return "operators.apply.dense"

        self._search()
        # modsolve is reached only through the name bound in equivalence
        self._span([equivalence], "solve_turn_system", "modsolve", solved)
        self._span([equivalence], "lm_match", "equivalence.lm_match", lm_stats)
        for cond in ("cond_monomial", "cond_butson"):
            name = "equivalence.prefilter." + cond
            self._span([equivalence], cond, name, rejected(name))
        self._span([states], "uniformity", "states.uniformity")
        self._span([states, reductions], "reduced_density", "states.reduced_density")
        self._span([states.SparseState], "as_minimal", "states.as_minimal")
        self._span([states.MinimalSupportState], "to_sparse", "states.to_sparse")
        self._span([states, equivalence], "states_equal_up_to_global_phase",
                   "states.equal_up_to_phase")
        self._span([phases.Amp], "is_zero", "phases.is_zero")
        self._span([butson, equivalence], "enumerate_bh", "butson.enumerate_bh")
        self._span([butson], "monomially_equivalent", "butson.monomially_equivalent")
        self._span([operators.LocalOperator], "apply", None, layer, apply_kind)
        self._span([reductions], "verify_ame5_nonequivalence", "reductions.pipeline")

        reduce_orig = phases._reduce_mod_cyclotomic
        qs = self.cyclotomic_q

        def reduce_mod_cyclotomic(coeffs, q):
            qs.add(q)
            return reduce_orig(coeffs, q)

        self._rebind([phases], "_reduce_mod_cyclotomic", reduce_mod_cyclotomic)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
