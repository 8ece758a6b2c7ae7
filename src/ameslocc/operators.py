"""Local (per-site) operators and their action on states.

A ``LocalOperator`` is a global phase together with one operator per site.
Site operators are tagged by kind so that monomial actions (permutation plus
diagonal) stay in the exact minimal-support representation, while Butson or
general layers move the state to the sparse amplitude representation.
"""

from __future__ import annotations

import itertools
from operator import getitem
from typing import List, Sequence, Tuple

from .butson import ButsonMatrix
from .phases import (ONE, Amp, Phase, get_tolerance, numerator_phase,
                     turn_numerators)
from .states import MinimalSupportState, SparseState


class OperatorError(ValueError):
    pass


class SiteOperator:
    """One unitary factor, |a> -> sum_j M[j][a] |j>.

    kinds:
      monomial    -- (sigma, phases), |a> -> D[a] |sigma[a]>
      butson      -- unscaled BH(d,d) layer, implicit 1/sqrt(d)
      general     -- explicit Amp matrix with implicit 1/sqrt(scale) factor
    """

    def __init__(self, kind: str, d: int, sigma=None, diag=None, matrix=None,
                 scale: int = 1):
        self.kind = kind
        self.d = d
        self.sigma = tuple(sigma) if sigma is not None else None
        self.diag = tuple(diag) if diag is not None else None
        self.matrix = matrix  # list of rows of Amp (output index first)
        self.scale = scale  # amplitude normalization: entries / sqrt(scale)
        if kind == "monomial":
            if sorted(self.sigma) != list(range(d)):
                raise OperatorError("sigma is not a permutation of [0,%d)" % d)
            if len(self.diag) != d:
                raise OperatorError("diagonal needs %d phases" % d)

    @staticmethod
    def monomial(sigma, diag) -> "SiteOperator":
        return SiteOperator("monomial", len(sigma), sigma=sigma, diag=diag)

    @staticmethod
    def permutation(sigma) -> "SiteOperator":
        return SiteOperator.monomial(sigma, [ONE] * len(sigma))

    @staticmethod
    def identity(d) -> "SiteOperator":
        return SiteOperator.permutation(range(d))

    @staticmethod
    def butson(b: ButsonMatrix) -> "SiteOperator":
        mat = [[Amp.from_counts(b.q, {e: 1}) for e in row] for row in b.exponents()]
        return SiteOperator("butson", b.d, matrix=mat, scale=b.d)

    @staticmethod
    def general(matrix, d, scale=1) -> "SiteOperator":
        return SiteOperator("general", d, matrix=matrix, scale=scale)

    def column(self, a: int) -> List[Tuple[int, Amp]]:
        """Nonzero (output symbol, amplitude) pairs of column a."""
        if self.kind == "monomial":
            return [(self.sigma[a], Amp.from_phase(self.diag[a]))]
        return [(i, self.matrix[i][a]) for i in range(self.d)
                if not self.matrix[i][a].is_zero()]

    def nonzero_profile(self):
        """(s, ok): the constant per-row/column nonzero count s with all
        nonzero entries of equal modulus, or (None, False) if not constant."""
        cols = [self.column(a) for a in range(self.d)]
        row_counts = [0] * self.d
        mods = []
        for col in cols:
            for i, amp in col:
                row_counts[i] += 1
                mods.append(abs(complex(amp)))
        s = len(cols[0])
        if any(len(c) != s for c in cols) or any(rc != s for rc in row_counts):
            return None, False
        tol = get_tolerance()
        if any(abs(m - mods[0]) > tol for m in mods):
            return None, False
        return s, True

    def compose_after(self, other: "SiteOperator") -> "SiteOperator":
        """self . other as matrices (other applied first)."""
        if self.kind == other.kind == "monomial":
            sigma = [self.sigma[j] for j in other.sigma]
            diag = [p * self.diag[j] for j, p in zip(other.sigma, other.diag)]
            return SiteOperator.monomial(sigma, diag)
        rows = [[Amp.zero() for _ in range(self.d)] for _ in range(self.d)]
        columns = [self.column(mid) for mid in range(self.d)]  # read once
        for a in range(self.d):
            for mid, amp1 in other.column(a):
                for out, amp2 in columns[mid]:
                    rows[out][a] = rows[out][a] + amp2 * amp1
        return SiteOperator.general(rows, self.d, scale=self.scale * other.scale)

    def to_json(self):
        obj = {"kind": self.kind, "d": self.d, "scale": self.scale}
        if self.sigma is not None:
            obj["sigma"] = list(self.sigma)
        if self.diag is not None:
            obj["diag"] = [p.to_json() for p in self.diag]
        if self.matrix is not None:  # entries as Amp.to_json gives them
            obj["matrix"] = [[amp.to_json() for amp in row] for row in self.matrix]
        return obj


class LocalOperator:
    def __init__(self, sites: Sequence[SiteOperator], global_phase: Phase = ONE):
        self.sites = list(sites)
        self.global_phase = global_phase

    @staticmethod
    def identity(n, d) -> "LocalOperator":
        return LocalOperator([SiteOperator.identity(d) for _ in range(n)])

    @property
    def is_monomial(self):
        return all(s.kind == "monomial" for s in self.sites)

    def image_turns(self, state: MinimalSupportState, extra=()):
        """(q, image, rest) from one ``turn_numerators`` reading of the global
        phase g, the diagonals theta, the phases w of ``state`` and those in
        ``extra``: ``image`` pairs sigma(I) with w_I + g + sum_j theta_j(I_j),
        not reduced mod q, for each row I; ``rest`` reads ``extra``."""
        q, turns = turn_numerators(itertools.chain(
            [self.global_phase], (p for site in self.sites for p in site.diag),
            state.phases.values(), extra))
        turns = iter(turns)
        g = next(turns)
        diag = [list(itertools.islice(turns, site.d)) for site in self.sites]
        sigmas = [site.sigma for site in self.sites]
        image = [(tuple(map(getitem, sigmas, idx)), sum(map(getitem, diag, idx), w + g))
                 for idx, w in zip(state.phases, turns)]
        return q, image, list(turns)

    def apply(self, state):
        """Apply to a state, staying exact and minimal-support when possible."""
        if isinstance(state, MinimalSupportState) and self.is_monomial:
            q, image, _ = self.image_turns(state)
            phases = {row: numerator_phase(t, q) for row, t in image}
            return MinimalSupportState(state.n, state.d, state.k, phases, check=False)
        sp = state.to_sparse()
        terms = dict(sp.terms)
        scale2 = sp.scale2
        for pos, site in enumerate(self.sites):
            new_terms = {}
            columns = [site.column(a) for a in range(site.d)]  # read once per site
            for idx, amp in terms.items():
                for j, m in columns[idx[pos]]:
                    out = idx[:pos] + (j,) + idx[pos + 1:]
                    acc = new_terms.get(out)
                    new_terms[out] = m * amp if acc is None else acc + m * amp
            terms = {i: a for i, a in new_terms.items() if not a.is_zero()}
            scale2 = scale2 * site.scale
        if not self.global_phase.close_to(ONE):
            terms = {i: a * self.global_phase for i, a in terms.items()}
        return SparseState(sp.n, sp.d, terms, scale2=scale2)

    def compose_after(self, other: "LocalOperator") -> "LocalOperator":
        if len(self.sites) != len(other.sites):
            raise OperatorError("site counts differ")
        sites = [a.compose_after(b) for a, b in zip(self.sites, other.sites)]
        return LocalOperator(sites, self.global_phase * other.global_phase)

    def to_json(self):
        return {"global_phase": self.global_phase.to_json(),
                "sites": [s.to_json() for s in self.sites]}

    def __repr__(self):
        kinds = ",".join(s.kind for s in self.sites)
        return f"LocalOperator[{kinds}]"
