"""Deciding local-unitary / SLOCC equivalence of minimal-support states.

For k-uniform states of minimal support with 2k < N, LU-equivalence reduces
to local monomial (LM) equivalence, which ``lm_match`` decides completely:
a backtracking search over support-row bijections (constrained to per-site
symbol permutations) followed by an exact mod-1 linear solve for the
diagonal phases.

At N = 2k and small parameters the non-monomial part of any equivalence is a
per-site Butson BH(d,d) layer; ``butson_match`` adds that branch.  For k > 2
the W-statistic ratio condition of the Butson form excludes that branch, and
an exhausted ``lm_match`` search excludes the monomial one.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .butson import _BH_CAP, enumerate_bh
from .designs import small_regime
from .modsolve import solve_turn_system
from .operators import LocalOperator, SiteOperator
from .phases import Phase, phase_product
from .states import MinimalSupportState, states_equal_up_to_global_phase

DEFAULT_MAX_NODES = 2_000_000


class EquivalenceError(ValueError):
    pass


class EquivalenceCertificate:
    """Replayable verdict of an equivalence decision.

    verdict is one of "equivalent", "inequivalent", "inconclusive"; an
    equivalent certificate carries a witness LocalOperator and the global
    phase such that witness(src) = dst exactly (or within tolerance when
    exact is False).
    """

    def __init__(self, verdict: str, witness: Optional[LocalOperator] = None,
                 reason: str = "", details=None, exact: bool = True, stats=None):
        self.verdict = verdict
        self.witness = witness
        self.reason = reason
        self.details = details
        self.exact = exact
        self.stats = stats or {}

    @property
    def equivalent(self):
        return self.verdict == "equivalent"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "details": self.details,
            "exact": self.exact,
            "stats": self.stats,
            "witness": self.witness.to_json() if self.witness else None,
        }

    def __repr__(self):
        return f"EquivalenceCertificate({self.verdict}, reason={self.reason!r})"


# ---------------------------------------------------------------------------
# W-statistics

def compute_w(s: MinimalSupportState, positions: Sequence[int], symbols: Sequence[int]) -> Phase:
    """Product of support phases over all indices carrying the given symbols
    at the given positions; needs len(positions) <= k so the match count is
    exactly d^(k - len(positions))."""
    positions = tuple(positions)
    if len(set(positions)) != len(positions):
        raise EquivalenceError("positions must be distinct")
    if len(positions) > s.k:
        raise EquivalenceError("at most k positions may be fixed")
    return phase_product(
        p for idx, p in s.phases.items()
        if all(idx[pos] == sym for pos, sym in zip(positions, symbols)))


def _w_table(s: MinimalSupportState, i: int, S: Tuple[int, ...]):
    """W^{i,S}_{l,I} for all symbols l at site i and tuples I on sites S."""
    table = {}
    for ell in range(s.d):
        for I in itertools.product(range(s.d), repeat=len(S)):
            table[(ell,) + I] = compute_w(s, (i,) + S, (ell,) + I)
    return table


def _i_s_choices(s: MinimalSupportState):
    for i in range(s.n):
        others = [p for p in range(s.n) if p != i]
        for S in itertools.combinations(others, s.k - 2):
            yield i, S


def cond_monomial(src: MinimalSupportState, dst: MinimalSupportState):
    """W-ratio test (k > 2) for a monomial-form equivalence; not a necessary
    condition in general.

    It asks for symbol permutations on the sites {i} u S making the ratio
    W'_{l,I} / W_{sigma(l),sigma(I)} independent of I for every l.  A local
    diagonal theta multiplies W^{i,S}_{l,I} by a constant times
    theta_i(l)^d * prod_s theta_s(I_s)^d, so the ratio is only additively
    separable in (l, I), and the test rejects monomial images whose
    diagonals are not d-th roots of unity.  The engine does not call it;
    it stays only because it is exported and perfbench/spans.py rebinds
    this name.  Returns (ok, first failing (i, S)).
    """
    if src.k <= 2:
        return True, None
    d = src.d
    perms = list(itertools.permutations(range(d)))
    for i, S in _i_s_choices(src):
        wsrc = _w_table(src, i, S)
        wdst = _w_table(dst, i, S)
        if not _sigma_exists(wsrc, wdst, d, len(S), perms):
            return False, (i, S)
    return True, None


def _ratios_constant(phases: List[Phase]) -> bool:
    """All phases equal, exactly for rational turns and within tolerance
    (circular distance) when any float turn is involved."""
    if all(p.is_exact for p in phases):
        return len({p.turn for p in phases}) <= 1
    return all(p.close_to(phases[0]) for p in phases[1:])


def _sigma_exists(wsrc, wdst, d, slen, perms) -> bool:
    tuples = list(itertools.product(range(d), repeat=slen))
    for sigma_i in perms:
        for sigma_S in itertools.product(perms, repeat=slen):
            ok = True
            for ell in range(d):
                ratios = [
                    wdst[(ell,) + I] / wsrc[(sigma_i[ell],) +
                                            tuple(p[x] for p, x in zip(sigma_S, I))]
                    for I in tuples]
                if not _ratios_constant(ratios):
                    ok = False
                    break
            if ok:
                return True
    return False


def cond_butson(src: MinimalSupportState, dst: MinimalSupportState):
    """Necessary condition (k > 2) for a Butson-form equivalence: within each
    state, the pairwise ratios W_{l,I}/W_{l',I} must not depend on I."""
    if src.k <= 2:
        return True, None
    for state, label in ((src, "src"), (dst, "dst")):
        d = state.d
        for i, S in _i_s_choices(state):
            w = _w_table(state, i, S)
            for ell in range(d):
                for ell2 in range(ell + 1, d):
                    ratios = [w[(ell,) + I] / w[(ell2,) + I]
                              for I in itertools.product(range(d), repeat=len(S))]
                    if not _ratios_constant(ratios):
                        return False, (label, i, S, ell, ell2)
    return True, None


# ---------------------------------------------------------------------------
# LM matching

def _check_compatible(src, dst):
    if (src.n, src.d, src.k) != (dst.n, dst.d, dst.k):
        raise EquivalenceError("states have different (n, d, k)")


def _solve_diagonals(src, dst, sigma, exact):
    """Phases theta_j(a) with w_I * prod_j theta_j(I_j) = w'_{sigma(I)}."""
    n, d = src.n, src.d
    rows, rhs = [], []
    for idx, w in sorted(src.phases.items()):
        out = tuple(sigma[j][a] for j, a in enumerate(idx))
        coeff = [0] * (n * d)
        for j, a in enumerate(idx):
            coeff[j * d + a] += 1
        rows.append(coeff)
        diff = dst.phases[out] / w
        rhs.append(diff.turn if exact else float(diff.turn))
    theta = solve_turn_system(rows, rhs, n * d, exact=exact)
    if theta is None:
        return None
    sites = []
    for j in range(n):
        diag = [Phase(theta[j * d + a]) for a in range(d)]
        sites.append(SiteOperator.monomial(sigma[j], diag))
    return LocalOperator(sites)


def _iter_support_sigmas(src, dst, max_nodes):
    """Complete backtracking over local symbol permutations mapping the
    support of src onto the support of dst.

    Yields complete per-site permutations; raises EquivalenceError when the
    node budget is exhausted (so exhaustion claims stay honest).  Each tried
    candidate row is one node.
    """
    n, d = src.n, src.d
    src_rows = sorted(src.phases)
    dst_set = set(dst.phases)
    dst_rows = sorted(dst_set)
    # index unity: the symbols on any k sites fix the dst row (k = 0 labels
    # row sets without that property, as in reductions' projected supports)
    by_cols = {cols: {tuple(r[c] for c in cols): r for r in dst_rows}
               for cols in itertools.combinations(range(n), src.k)}
    maps: List[Dict[int, int]] = [dict() for _ in range(n)]
    used: List[set] = [set() for _ in range(n)]
    nodes = 0

    def candidates(row):
        # once k symbols of row are mapped, only one dst row can be its image
        cols = tuple(j for j in range(n) if row[j] in maps[j])[:src.k]
        if src.k and len(cols) == src.k:
            return (by_cols[cols][tuple(maps[j][row[j]] for j in cols)],)
        # identity-image first for deterministic, fast-path ordering
        first = (row,) if row in dst_set else ()
        return itertools.chain(first, (cand for cand in dst_rows if cand != row))

    def compatible(row, cand):
        for j in range(n):
            a, b = row[j], cand[j]
            got = maps[j].get(a)
            if got is None:
                if b in used[j]:
                    return False
            elif got != b:
                return False
        return True

    def assign(row, cand):
        touched = []
        for j in range(n):
            a, b = row[j], cand[j]
            if a not in maps[j]:
                maps[j][a] = b
                used[j].add(b)
                touched.append((j, a, b))
        return touched

    def undo(touched):
        for j, a, b in touched:
            used[j].discard(b)
            del maps[j][a]

    def rec(pos):
        nonlocal nodes
        if pos == len(src_rows):
            yield tuple(tuple(maps[j][a] for a in range(d)) for j in range(n))
            return
        row = src_rows[pos]
        for cand in candidates(row):
            nodes += 1
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            if not compatible(row, cand):
                continue
            touched = assign(row, cand)
            yield from rec(pos + 1)
            undo(touched)

    yield from rec(0)


def lm_match(src: MinimalSupportState, dst: MinimalSupportState,
             max_nodes: int = DEFAULT_MAX_NODES) -> EquivalenceCertificate:
    """Complete decision of local-monomial equivalence.

    Searches all per-site symbol permutations that map support onto support;
    for each, the diagonal phases are an exact linear system over turns
    mod 1.  The first witness (identity-first ordering) is replay-verified
    before being returned.
    """
    _check_compatible(src, dst)
    exact = src.is_exact and dst.is_exact
    stats = {"sigmas_tested": 0}
    try:
        for sigma in _iter_support_sigmas(src, dst, max_nodes):
            stats["sigmas_tested"] += 1
            witness = _solve_diagonals(src, dst, sigma, exact)
            if witness is not None:
                # the solved system enforces witness(src) == dst outright
                if states_equal_up_to_global_phase(witness.apply(src), dst) is None:
                    raise AssertionError("diagonal solution failed replay")
                return EquivalenceCertificate(
                    "equivalent", witness=witness, reason="lm-witness",
                    exact=exact, stats=stats)
    except EquivalenceError as e:
        return EquivalenceCertificate(
            "inconclusive", reason=str(e), exact=exact, stats=stats)
    return EquivalenceCertificate(
        "inequivalent", reason="search-exhausted",
        details={"searched": "all support-compatible local permutations"},
        exact=exact, stats=stats)


def _lm_automorphisms(s: MinimalSupportState, max_nodes: int) -> List[LocalOperator]:
    """One monomial self-witness per per-site permutation tuple admitting a
    diagonal completion (free diagonal parameters zeroed), sorted by tuple."""
    exact = s.is_exact
    found = {}
    for sigma in _iter_support_sigmas(s, s, max_nodes):
        w = _solve_diagonals(s, s, sigma, exact)
        if w is not None:
            found[sigma] = w
    return [found[sigma] for sigma in sorted(found)]


def lm_automorphism_sigmas(s: MinimalSupportState,
                           max_nodes: int = DEFAULT_MAX_NODES):
    """All per-site permutation tuples admitting a diagonal completion."""
    return [tuple(site.sigma for site in w.sites)
            for w in _lm_automorphisms(s, max_nodes)]


def _butson_layer_witnesses(src: MinimalSupportState, dst: MinimalSupportState,
                            max_nodes: int):
    """One item per per-site tuple of BH(d,d) class representatives: the
    replayed witness (layer, then a local monomial) mapping src onto dst,
    or None when that layer admits no monomial completion."""
    reps = enumerate_bh(src.d)
    for combo in itertools.product(reps, repeat=src.n):
        layer = LocalOperator([SiteOperator.butson(b) for b in combo])
        mapped = layer.apply(src).as_minimal(k=src.k)
        if mapped is None:
            yield None
            continue
        cert = lm_match(mapped, dst, max_nodes=max_nodes)
        if not cert.equivalent:
            yield None
            continue
        witness = cert.witness.compose_after(layer)
        g = states_equal_up_to_global_phase(witness.apply(src), dst)
        if g is None:
            raise AssertionError("butson witness failed replay")
        witness.global_phase = witness.global_phase * g.conj()
        yield witness


def automorphisms(s: MinimalSupportState, branch: str = "lm",
                  max_nodes: int = DEFAULT_MAX_NODES) -> List[LocalOperator]:
    """Witnesses of self-equivalence, one canonical witness per permutation
    part (free diagonal parameters zeroed), deterministic order.

    branch "lm" searches monomial operators; "lm+butson" additionally applies
    every per-site tuple of enumerated BH(d,d) representatives.
    """
    out = _lm_automorphisms(s, max_nodes)
    for w in out:
        w.global_phase = states_equal_up_to_global_phase(w.apply(s), s).conj()
    if branch == "lm+butson":
        out.extend(w for w in _butson_layer_witnesses(s, s, max_nodes) if w is not None)
    return out


# ---------------------------------------------------------------------------
# the N = 2k Butson branch and dispatch

def butson_match(src: MinimalSupportState, dst: MinimalSupportState,
                 max_nodes: int = DEFAULT_MAX_NODES) -> EquivalenceCertificate:
    """Equivalence decision for AME(2k,d): LM branch plus Butson layers.

    The Butson branch applies every per-site tuple of BH(d,d) class
    representatives to src and delegates the residual monomial matching to
    lm_match.  The verdict is inequivalent only when both allowed forms are
    excluded: lm_match exhausts its complete monomial search, and the k > 2
    Butson-form condition cond_butson fails (the rule family_classes uses).
    Misses of the Butson layers are reported as inconclusive.
    """
    _check_compatible(src, dst)
    if src.n != 2 * src.k:
        raise EquivalenceError("butson_match applies to N = 2k only")
    exact = src.is_exact and dst.is_exact
    if not small_regime(src.k, src.d):
        return EquivalenceCertificate(
            "inconclusive", reason="outside-small-regime",
            details={"k": src.k, "d": src.d}, exact=exact)
    if src.d > _BH_CAP:
        return EquivalenceCertificate(
            "inconclusive", reason="butson-enumeration-cap",
            details={"cap": _BH_CAP}, exact=exact)

    lm = lm_match(src, dst, max_nodes=max_nodes)
    if lm.verdict != "inequivalent":
        return lm
    ok_b, where_b = cond_butson(src, dst)
    if not ok_b:
        return EquivalenceCertificate(
            "inequivalent", reason="lm-exhausted-butson-condition-violated",
            details={"lm_reason": lm.reason, "butson_condition": where_b},
            exact=exact, stats=lm.stats)

    tried = 0
    for tried, witness in enumerate(_butson_layer_witnesses(src, dst, max_nodes), 1):
        if witness is not None:
            return EquivalenceCertificate(
                "equivalent", witness=witness, reason="butson-witness",
                exact=exact, stats={"butson_tuples": tried})

    return EquivalenceCertificate(
        "inconclusive", reason="searched-branches-found-no-witness",
        details={"butson_tuples": tried}, exact=exact)


def decide_slocc(src, dst, max_nodes: int = DEFAULT_MAX_NODES) -> EquivalenceCertificate:
    """SLOCC (equivalently LU, for these critical states) dispatch.

    Minimal-support pairs with 2k < N are decided completely by lm_match;
    N = 2k pairs in the small regime go through butson_match; the specific
    non-minimal five-party pair of the d^3-term phased family versus the
    minimal-support family is settled by the reduction pipeline; everything
    else is inconclusive.
    """
    from .states import uniformity
    sa, sb = src.to_sparse(), dst.to_sparse()
    # a d^k-term equal-modulus state on an index-unity support is exactly
    # k-uniform when 2k <= N (no two rows agree on N - k >= k sites)
    ma, mb = (m if m is not None and 2 * m.k <= m.n else None
              for m in (sa.as_minimal(), sb.as_minimal()))
    ka = uniformity(sa) if ma is None else ma.k
    kb = uniformity(sb) if mb is None else mb.k
    if ka == 0 or kb == 0:
        raise EquivalenceError("inputs must be k-uniform critical states")
    if ka != kb:
        return EquivalenceCertificate(
            "inequivalent", reason="different-uniformity",
            details={"src": ka, "dst": kb})
    k = ka
    if (sa.n, sa.d) != (sb.n, sb.d):
        return EquivalenceCertificate("inequivalent", reason="different-shape")
    if ma is not None and mb is not None:
        if 2 * k < ma.n:
            return lm_match(ma, mb, max_nodes=max_nodes)
        if small_regime(k, ma.d) and ma.d <= _BH_CAP:
            return butson_match(ma, mb, max_nodes=max_nodes)
        cert = lm_match(ma, mb, max_nodes=max_nodes)
        if cert.equivalent:
            return cert
        return EquivalenceCertificate(
            "inconclusive", reason="N=2k-outside-complete-regime",
            details={"lm_verdict": cert.verdict}, exact=cert.exact)
    pipeline = _ame5_pipeline_applicable(sa, sb)
    if pipeline is not None:
        from .reductions import verify_ame5_nonequivalence
        report = verify_ame5_nonequivalence(pipeline)
        if report["all_passed"]:
            return EquivalenceCertificate(
                "inequivalent", reason="reduction-pipeline",
                details=report)
        return EquivalenceCertificate(
            "inconclusive", reason="reduction-pipeline-step-failed", details=report)
    return EquivalenceCertificate(
        "inconclusive", reason="no-complete-procedure-for-this-pair")


def _ame5_pipeline_applicable(sa, sb) -> Optional[int]:
    """Detect the five-party phased-family versus minimal-support pair."""
    from .states import ame_linear_5, construct_ame5_phased, _is_prime
    d = sa.d
    if sa.n != 5 or d < 5 or not _is_prime(d):
        return None
    counts = {len(sa.terms), len(sb.terms)}
    if counts != {d ** 2, d ** 3}:
        return None
    big, small = (sa, sb) if len(sa.terms) == d ** 3 else (sb, sa)
    if set(big.terms) != set(construct_ame5_phased(d).terms):
        return None
    if set(small.terms) != set(ame_linear_5(d).phases):
        return None
    return d


def family_classes(base: MinimalSupportState, marked: Tuple[int, ...],
                   turns: Sequence) -> dict:
    """Pairwise class report for phase decorations at one marked support index.

    Pairs whose marked phases agree or are complex conjugate are never
    claimed separated, and are not searched: no written argument covers the
    conjugate pairing.  Every other pair is certified inequivalent only when
    both allowed equivalence forms are excluded: lm_match exhausts its
    complete monomial search, and the Butson-form condition fails.  A
    monomial witness makes the pair equivalent.
    """
    from .states import with_phases
    if base.k <= 2:
        raise EquivalenceError("family analysis applies to k > 2")
    phases = [Phase(t) for t in turns]
    members = [with_phases(base, {tuple(marked): p}) for p in phases]
    report = {"turns": list(turns), "pairs": []}
    for a, b in itertools.combinations(range(len(members)), 2):
        pair = {"pair": (a, b), "lm_verdict": None, "lm_reason": None,
                "butson_condition": None, "butson_violation": None}
        if phases[a].close_to(phases[b]):
            verdict = "not-separated-equal-phase"
        elif phases[a].close_to(phases[b].conj()):
            verdict = "not-separated-conjugate-phase"
        else:
            lm = lm_match(members[a], members[b])
            ok_b, where_b = cond_butson(members[a], members[b])
            pair.update(lm_verdict=lm.verdict, lm_reason=lm.reason,
                        butson_condition=ok_b, butson_violation=where_b)
            if lm.equivalent:
                verdict = "equivalent"
            elif lm.verdict == "inconclusive":
                verdict = "not-separated-lm-inconclusive"
            elif ok_b:
                verdict = "not-separated-butson-condition-holds"
            else:
                verdict = "inequivalent"
        pair["verdict"] = verdict
        report["pairs"].append(pair)
    return report
