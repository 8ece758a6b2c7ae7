"""Deciding local-unitary / SLOCC equivalence of minimal-support states.

For k-uniform states of minimal support with 2k < N, LU-equivalence reduces
to local monomial (LM) equivalence, which ``lm_match`` decides completely:
a backtracking search over support-row bijections (constrained to per-site
symbol permutations) followed by an exact mod-1 linear solve for the
diagonal phases, cut short when the cokernel characters of the two states'
turns have different orders.

At N = 2k and small parameters the non-monomial part of any equivalence is a
per-site Butson BH(d,d) layer; ``butson_match`` adds that branch.  For k > 2
the W-statistic ratio condition of the Butson form excludes that branch, and
an ``lm_match`` inequivalence excludes the monomial one.  ``butson_match`` is
the one N = 2k rule: ``decide_slocc`` and ``family_classes`` report it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache
from operator import getitem, itemgetter, mul
from typing import List, Optional, Sequence, Tuple

from .butson import _BH_CAP, enumerate_bh
from .designs import small_regime
from .modsolve import _eliminate, solve_turn_system
from .operators import LocalOperator, SiteOperator
from .phases import (Phase, get_tolerance, numerator_phase, phase_product, turn_difference,
                     turn_numerators)
from .reductions import _lu_head, _lu_reading, _lu_rest
from .states import (MinimalSupportState, StateError, _check_rows, _columns,
                     states_equal_up_to_global_phase, with_phases)

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


def _w_table(turns, d, positions):
    """W_{l,I} for all symbols l at positions[0] and tuples I on the other
    positions, keyed (l,) + I, in one pass over ``turns``, a dict of the
    support rows' turn numerators (``phases.turn_numerators``): each cell
    sums the numerators of the rows carrying its symbols, the turn of the
    phase product ``compute_w`` takes."""
    cells = dict.fromkeys(itertools.product(range(d), repeat=len(positions)), 0)
    for idx, t in turns.items():
        cells[tuple(map(idx.__getitem__, positions))] += t
    return cells


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
    q, turns = turn_numerators([*src.phases.values(), *dst.phases.values()])
    tsrc, tdst = dict(zip(src.phases, turns)), dict(zip(dst.phases, turns[len(src.phases):]))
    perms = list(itertools.permutations(range(d)))
    for i, S in _i_s_choices(src):
        wsrc = _w_table(tsrc, d, (i,) + S)
        wdst = _w_table(tdst, d, (i,) + S)
        if not _sigma_exists(wsrc, wdst, d, len(S), perms, q):
            return False, (i, S)
    return True, None


def _ratios_constant(ratios, q) -> bool:
    """All turns r / q in ratios equal mod 1: exactly for an int q, and
    within tolerance (circular distance) for float turns, q = 1.0."""
    if isinstance(q, int):
        return len({r % q for r in ratios}) <= 1
    return all(min(x, 1.0 - x) <= get_tolerance()
               for x in ((r - ratios[0]) % 1.0 for r in ratios))


def _sigma_exists(wsrc, wdst, d, slen, perms, q) -> bool:
    tuples = list(itertools.product(range(d), repeat=slen))
    for sigma_i in perms:
        for sigma_S in itertools.product(perms, repeat=slen):
            if all(_ratios_constant([wdst[(ell,) + I] - wsrc[(sigma_i[ell],) + tuple(
                    p[x] for p, x in zip(sigma_S, I))] for I in tuples], q) for ell in range(d)):
                return True
    return False


def cond_butson(src: MinimalSupportState, dst: MinimalSupportState):
    """Necessary condition (k > 2) for a Butson-form equivalence: within each
    state, the pairwise ratios W_{l,I}/W_{l',I} must not depend on I."""
    if src.k <= 2:
        return True, None
    for state, label in ((src, "src"), (dst, "dst")):
        d = state.d
        q, turns = turn_numerators(state.phases.values())
        turns = dict(zip(state.phases, turns))
        tuples = list(itertools.product(range(d), repeat=state.k - 2))
        for i, S in _i_s_choices(state):
            w = _w_table(turns, d, (i,) + S)
            for ell, ell2 in itertools.combinations(range(d), 2):
                if not _ratios_constant([w[(ell,) + I] - w[(ell2,) + I] for I in tuples], q):
                    return False, (label, i, S, ell, ell2)
    return True, None


# ---------------------------------------------------------------------------
# LM matching

def _check_compatible(src, dst):
    """EquivalenceError unless src and dst share (n, d, k) with k >= 1.

    The support search maps symbols along index-unity rows; the one row of
    a k = 0 (product) support leaves symbols unmapped."""
    if (src.n, src.d, src.k) != (dst.n, dst.d, dst.k):
        raise EquivalenceError("states have different (n, d, k)")
    if src.k < 1:
        raise EquivalenceError("the support search needs k >= 1, got k = %d" % src.k)


def _diagonal_solver(src, dst):
    """(solve, orders, screen) for the sigmas mapping src's support onto dst's.

    solve(sigma): the local monomial with permutations sigma whose diagonal
    phases theta_j(a) give w_I * prod_j theta_j(I_j) = w'_{sigma(I)}, or
    None; each entry is ``numerator_phase`` of the (q, values) turns
    ``solve_turn_system`` gives.  Float turns are solved exactly, as the
    binary fractions they hold, within the tolerance only at the cokernel
    rows, and at k >= 2 then take one least-squares step
    (``_least_squares_turns``).  orders(sigma):
    den / gcd(den, c.t) over the cokernel rows c for the src turns t and
    for the dst turns pulled back by sigma.  screen: a ``_Screen``.  Unless
    every turn is rational, so that ``turn_numerators`` gives an integer
    den, orders is None and screen passes every sigma.

    Each later sigma is sigma0 o g, g a support automorphism, which
    permutes the cokernel; each cokernel row sums to 0, as the all-ones
    vector is a column sum of the incidence rows.  So with m the most common
    src turn and Z the rows whose turn is not m, sigma is solvable iff
    sum over i in Z of c[g(i)] * (src_i - m) = c.pull_sigma0(dst) (mod den)
    for all c: a test of the point g(Z), the rows sigma0 maps onto
    sigma(Z), alone.  It reads the rows c with c.pull_sigma0(dst) nonzero
    first, shortest first, then the rows touching g(Z), and stops at the
    first that fails.  When Z is longer than the shortest cokernel row,
    each row is tested directly, c.pull_sigma(dst) = c.src, shortest
    first, gathering dst over its support only, and there are no points.
    The incidence rows, their elimination and the cokernel tables are one
    cache entry per support (``_incidence``); c.pull_sigma0(dst) is taken
    at the second sigma.  By index unity a row is fixed by its first k
    symbols, so only the first k sites of sigma are read."""
    n, d, k = src.n, src.d, src.k
    inc = _incidence(frozenset(src.phases), n, d)
    idxs, cols = inc.idxs, inc.cols[:k]
    mod, turns = turn_numerators(
        [src.phases[idx] for idx in idxs] + list(dst.phases.values()))
    den = mod if isinstance(mod, int) else None  # else 1.0 and float turns
    src_turns = turns[:len(idxs)]
    dst_turns = {idx[:k]: t for idx, t in zip(dst.phases, turns[len(idxs):])}

    def pulled_back(sigma, cols=cols):
        return list(map(dst_turns.__getitem__, _images(sigma, cols)))

    def solve(sigma):
        rhs = [(t - w) % mod for t, w in zip(pulled_back(sigma), src_turns)]
        theta = solve_turn_system(inc.system, rhs, n * d, mod)
        if theta is None:
            return None
        if den is None and k >= 2:
            theta = _least_squares_turns(idxs, d, k, rhs, theta)
        return _monomial(sigma, theta)

    if den is None:
        return solve, None, _Screen(None)

    @lru_cache(maxsize=2)  # c.src and K_c stay while a search reads them
    def dots(sigma):
        """c.src (sigma None) or c.pull_sigma(dst) mod den, for each
        cokernel row c, shortest first."""
        values = src_turns if sigma is None else pulled_back(sigma)
        return [sum(map(mul, coeffs, map(values.__getitem__, at))) % den
                for at, coeffs, _ in inc.cokernel[0]]

    def orders(sigma):
        return tuple(den // math.gcd(den, *dots(s)) for s in (None, sigma))

    def transported(sigma0):
        """(Z, test of sigma, test of a point) for the sigmas after sigma0;
        Z and the point test are None when each sigma is tested directly."""
        by_row, touching = inc.cokernel
        m = Counter(src_turns).most_common(1)[0][0]
        z = [i for i, t in enumerate(src_turns) if t != m]
        if by_row and len(z) > len(by_row[0][0]):
            want = [(coeffs, rcols[:k], w)
                    for (_, coeffs, rcols), w in zip(by_row, dots(None))]

            def direct(sigma):
                return not any((sum(map(mul, coeffs, pulled_back(sigma, rcols))) - w) % den
                               for coeffs, rcols, w in want)
            return None, direct, None
        k0 = dots(sigma0)
        nonzero = [(r, v) for r, v in enumerate(k0) if v]
        steps = [(src_turns[i] - m) % den for i in z]

        def test(point):
            """Whether sigma0 o g passes, for the point g(Z)."""
            seen = [touching[i] for i in point]
            for r, v in nonzero:
                if (sum(c.get(r, 0) * step for c, step in zip(seen, steps)) - v) % den:
                    return False
            for c in seen:
                for r in c:
                    if not k0[r] and sum(t.get(r, 0) * step
                                         for t, step in zip(seen, steps)) % den:
                        return False
            return True

        inverse = tuple(tuple(sorted(range(d), key=perm.__getitem__)) for perm in sigma0)

        def by_point(sigma):
            g = _compose(inverse, sigma)
            return test(tuple([inc.index[tuple(map(getitem, g, idxs[i]))] for i in z]))
        return tuple(z), by_point, test

    return solve, orders, _Screen(transported)


def _least_squares_turns(idxs, d, k, rhs, theta):
    """Float turns theta + delta, delta = (A^T A)^+ A^T r for the residue
    r = rhs - A.theta reduced into (-1/2, 1/2], A the incidence rows of
    the index-unity support idxs of strength k >= 2.

    The exact back substitution meets the pivot rows exactly and leaves
    the rounding noise of the float turns on the other rows; delta spreads
    it over all rows in least squares.  A^T A = d^(k-1) I + d^(k-2) (J -
    I_n (x) J_d): vectors whose every site block sums to 0 have eigenvalue
    d^(k-1), the block-constant vectors with zero total are the gauge
    (eigenvalue 0, dropped), and the all-ones vector has n d^(k-1)."""
    values = theta[1]
    g = [0.0] * len(values)
    for idx, b in zip(idxs, rhs):
        cells = [j * d + a for j, a in enumerate(idx)]
        x = b - sum(map(values.__getitem__, cells))
        x -= math.ceil(x - 0.5)
        for c in cells:
            g[c] += x
    n, scale = len(idxs[0]), d ** (k - 1)
    means = [sum(g[j * d:j * d + d]) / d for j in range(n)]
    ones = sum(means) / (n * n * scale)
    return 1.0, [(v + (x - means[c // d]) / scale + ones) % 1.0
                 for c, (v, x) in enumerate(zip(values, g))]


def _monomial(sigma, theta):
    """The local monomial with permutations sigma and the diagonal turns
    theta, (q, values) with n * d values, site by site."""
    d = len(sigma[0])
    diagonal = [numerator_phase(v, theta[0]) for v in theta[1]]
    return LocalOperator([SiteOperator.monomial(perm, diagonal[j * d:j * d + d])
                          for j, perm in enumerate(sigma)])


class _Screen:
    """``_diagonal_solver``'s screen of one pair's sigmas, in the search's
    order.  Called on a sigma it is False when sigma has no solution and
    True when it must be solved, as the first, sigma0, always is.

    ``transported(sigma0)`` (None: every sigma passes) gives, at the second
    sigma, the tests of the later ones: (Z, test of sigma, test of a point),
    Z the sorted positions (in the sorted support) of the src rows whose
    turn is not the most common one and a point g(Z) for a support
    automorphism g; Z and the point test are None when each sigma is
    tested directly.  Given as ``_iter_support_sigmas``'s ``fixed``, the
    screen lets the search walk the orbit of Z instead of the group:
    ``points()`` is (Z, test of a point) or None.  That search yields None
    for a point that fails, which the screen rejects, and sigma0 o g for
    one that passes, which the screen tests again as any sigma; it records
    the group's order and the orbit's length in ``walk``, for the stats.
    """

    def __init__(self, transported):
        self.transported, self.tests, self.sigma0, self.walk = transported, None, None, {}

    def __call__(self, sigma):
        if sigma is None:
            return False
        if self.sigma0 is None:
            self.sigma0 = sigma
            return True
        return self._tests()[1](sigma)

    def points(self):
        z, _, test = self._tests()
        return None if z is None else (z, test)

    def _tests(self):
        if self.tests is None:
            self.tests = ((None, lambda sigma: True, None) if self.transported is None
                          else self.transported(self.sigma0))
        return self.tests


def _images(sigma, cols):
    """The images under sigma of the rows whose site columns are cols."""
    return zip(*[map(perm.__getitem__, col) for perm, col in zip(sigma, cols)])


@lru_cache(maxsize=32)
def _incidence(rows, n, d):
    """The ``_Incidence`` of a frozenset of support rows, one per support."""
    return _Incidence(rows, n, d)


class _Incidence:
    """The diagonal systems of one support over n sites and d symbols:
    ``idxs``, the rows sorted; ``index``, each row's position there;
    ``cols``, their site columns; ``rows``, their (site, symbol) incidence
    rows; and, built at first use, ``system``, their ``modsolve``
    elimination, and the ``cokernel`` tables."""

    def __init__(self, rows, n, d):
        self.idxs = tuple(sorted(rows))
        self.index = {row: i for i, row in enumerate(self.idxs)}
        self.cols = tuple(zip(*self.idxs))
        self.rows = tuple(tuple(int(idx[c // d] == c % d) for c in range(n * d))
                          for idx in self.idxs)

    @cached_property
    def system(self):
        return _eliminate(self.rows, len(self.rows[0]))

    @cached_property
    def cokernel(self):
        """(by_row, touching): the cokernel rows of ``system``, shortest
        first, each as (support rows, coefficients, site columns of those
        rows); and for each support row a dict from each cokernel row
        touching it to its coefficient there."""
        coker = self.system[2]
        touching = [{} for _ in self.idxs]
        for at, c in enumerate(coker):
            for i, v in c:
                touching[i][at] = v
        return [(tuple(i for i, _ in c), tuple(v for _, v in c),
                 tuple(zip(*[self.idxs[i] for i, _ in c]))) for c in coker], touching


@lru_cache(maxsize=32)
def _row_plan(rows, k):
    """The search plan (``_Plan``) of an index-unity support, a frozenset
    of rows, and its k >= 1: the rows the search places, in order, until
    every (site, symbol) pair is mapped, and the other rows, sorted.

    Next comes a row with k mapped sites, which fix its image by index
    unity, and the most unmapped pairs, failing that the one with the most
    mapped sites, ties in sorted order; each row maps a new pair, so the
    plan has at most n(d - 1) + 1 rows.
    """
    mapped = dict.fromkeys(sorted(rows), 0)  # unplaced row -> its mapped sites
    carriers = {}  # unmapped (site, symbol) -> the rows carrying it
    for row in mapped:
        for site in enumerate(row):
            carriers.setdefault(site, []).append(row)
    steps = []
    while carriers:
        # the first maximum in sorted order, among rows still carrying a pair
        row = max(mapped, key=lambda r: (mapped[r] < len(r), min(mapped[r], k),
                                         -mapped[r]))
        del mapped[row]
        old = tuple(j for j, a in enumerate(row) if (j, a) not in carriers)
        new = tuple(j for j, a in enumerate(row) if (j, a) in carriers)
        steps.append((row, old[:k] if len(old) >= k else None, old, new))
        for site in enumerate(row):
            for other in carriers.pop(site, ()):
                if other in mapped:
                    mapped[other] += 1
    return _Plan(tuple(steps), tuple(mapped))


class _Plan:
    """The support search of one index-unity row set and its k >= 1,
    compiled by ``_row_plan``.

    ``steps`` holds one (row, cols, old, new) per plan row, in order: old
    are the sites whose (site, symbol) pair earlier rows map, new the sites
    the row maps first, and cols the first k of old when there are k, else
    None.  ``rest`` holds the other rows, sorted.  ``segments`` cuts the
    plan before each row without cols, where the search branches; each
    segment is (branch, lookups, undo):
    - branch is (row, j0, expect, pairs): j0 is the first old site, whose
      image filters the candidates (None when no site is mapped yet);
    - lookups are the rows with cols up to the next branch, as (cols,
      symbols at cols, expect, pairs);
    - undo[m] lists the new pairs of the branch row and the first m lookups.
    pairs are a row's new (site, symbol) pairs; expect gives, site by site,
    the symbol whose image a candidate must carry there (its old sites) or
    -1 for an image no symbol has yet (its new sites).
    ``group`` is the row set's automorphism group (``_Group``) once a
    self-search (``_self_search``) has found it, and ``tried`` the largest
    node budget a self-search ran out of.
    """

    def __init__(self, steps, rest):
        self.steps, self.rest, self.group, self.tried = steps, rest, None, 0
        self.rest_cols = tuple(zip(*rest))  # the sites' symbols over rest
        segments = []
        for row, cols, old, new in steps:
            expect = tuple(a if j in old else -1 for j, a in enumerate(row))
            pairs = tuple((j, row[j]) for j in new)
            if cols is None:
                segments.append(((row, old[0] if old else None, expect, pairs), [], [pairs]))
            else:
                segments[-1][1].append((cols, tuple(row[j] for j in cols), expect, pairs))
                segments[-1][2].append(segments[-1][2][-1] + pairs)
        self.segments = tuple((b, tuple(l), tuple(u)) for b, l, u in segments)
        self.branch_rows = tuple(row for row, cols, _, _ in steps if cols is None)


def _compose(g, h):
    """The per-site permutations g o h."""
    return tuple([tuple(map(a.__getitem__, b)) for a, b in zip(g, h)])


class _Group:
    """The automorphisms of a row set, as per-level transversals over the
    branch rows b_1, ..., b_L of its plan.

    ``levels[i]`` maps each row p in the orbit of b_i under the pointwise
    stabiliser of b_1, ..., b_(i-1) to one element of that stabiliser
    taking b_i to p (b_i itself to the identity).  Every automorphism is
    one product u_1 o ... o u_L with u_i from level i, so the group order
    is the product of the orbit lengths.  ``cost`` is the node count of the
    self-search that found it.  ``compiled``, built at the first ``coset``,
    holds each u as per-site ``itemgetter``s: h o u is one call per site.
    ``moves``, built at the first ``orbit``, holds each generator as the
    permutation of the row positions in the support's ``_Incidence``.
    """

    def __init__(self, branch_rows, n, d):
        self.rows, self.gens, self.cost, self.compiled = branch_rows, [], None, None
        self.identity = (tuple(range(d)),) * n
        self.levels = [{row: self.identity} for row in branch_rows]
        self.moves = None

    @property
    def order(self):
        return math.prod(map(len, self.levels))

    def orbit(self, inc, points, limit):
        """(tree, cost): the orbit of ``points``, an ordered tuple of row
        positions in ``inc``, the support's ``_Incidence``, as a Schreier
        tree (Seress, Permutation Group Algorithms, 2003), and the number
        of images its breadth-first search over the generators takes.

        tree maps each point, points itself first and the rest in
        breadth-first order, to the point it is reached from and that
        generator's index (points itself to None).  EquivalenceError when
        the cost is over limit."""
        if self.moves is None:
            self.moves = [tuple([inc.index[tuple(map(getitem, s, row))] for row in inc.idxs])
                          for s in self.gens]
        tree, queue, cost = {points: None}, [points], 0
        for p in queue:  # grows while it is read: a breadth-first search
            for at, move in enumerate(self.moves):
                image = tuple(map(move.__getitem__, p))
                if image not in tree:
                    tree[image] = p, at
                    queue.append(image)
            cost += len(self.moves)
            if cost > limit:
                raise EquivalenceError("search budget exhausted")
        return tree, cost

    def element(self, tree, point):
        """The automorphism taking the tree's first point to point, the
        product of the generators on its path."""
        u = self.identity
        while tree[point] is not None:
            point, at = tree[point]
            u = _compose(u, self.gens[at])
        return u

    def add(self, g):
        """Take the automorphism g as a generator and regrow the orbit of
        the first branch row g moves.  Every generator so far fixes the
        branch rows before that one, as the self-search finds them from
        the deepest row up."""
        self.gens.append(g)
        i = next(i for i, row in enumerate(self.rows) if tuple(map(getitem, g, row)) != row)
        orbit = {self.rows[i]: self.identity}
        queue = [self.rows[i]]
        for p in queue:  # grows while it is read: a breadth-first search
            for s in self.gens:
                image = tuple(map(getitem, s, p))
                if image not in orbit:
                    orbit[image] = _compose(s, orbit[p])
                    queue.append(image)
        self.levels[i] = orbit

    def coset(self, sigma0):
        """sigma0 o G without sigma0, in the search's order: lexicographic
        in (sigma(r) != r, sigma(r)) over the branch rows r.  With h the
        product of sigma0 and the elements chosen at the levels before i,
        sigma(b_i) = h(p) for the point p chosen at level i, and a level
        with one point adds no choice."""
        if self.compiled is None:
            self.compiled = [(row, [(p, tuple(itemgetter(*perm) for perm in u))
                                    for p, u in orbit.items()])
                             for row, orbit in zip(self.rows, self.levels) if len(orbit) > 1]
        levels = self.compiled

        def walk(h, at):
            row, orbit = levels[at]

            def rank(point):
                image = tuple(map(getitem, h, point[0]))
                return image != row, image

            for _, getters in sorted(orbit, key=rank):
                sigma = tuple([g(x) for g, x in zip(getters, h)])
                if at + 1 < len(levels):
                    yield from walk(sigma, at + 1)
                elif sigma != sigma0:
                    yield sigma

        return walk(sigma0, 0) if levels else iter(())


def _self_search(plan, n, d, max_nodes):
    """The automorphism group of the plan's row set, or None when the
    search needs more than max_nodes nodes; recorded on the plan either way.

    It is the backtracking of ``_backtrack`` from the rows onto themselves,
    pruned by the automorphisms it finds, as in nauty (McKay and Piperno,
    J. Symb. Comput. 60, 2014).  It follows the identity path first, so it
    settles the branch rows from the deepest up.  At a branch row the path
    reaches by the identity, a candidate image already in the row's orbit
    under the automorphisms found so far is skipped; below any other
    candidate the search stops at the first automorphism, which becomes a
    generator.  So each level ends with the orbit of its row under the
    stabiliser of the rows before it.
    """
    group = _Group(plan.branch_rows, n, d)
    rows = frozenset(row for row, _, _, _ in plan.steps).union(plan.rest)
    search = _backtrack(plan, n, d, rows, max_nodes, group.levels)
    try:
        while True:
            group.add(next(search)[1])
    except StopIteration as stop:
        group.cost, plan.group = stop.value, group
    except EquivalenceError:
        plan.tried = max(plan.tried, max_nodes)
    return plan.group


def _iter_support_sigmas(src, dst, max_nodes, fixed=None):
    """Complete backtracking over local symbol permutations mapping the
    support of src onto the support of dst.

    Yields complete per-site permutations; raises EquivalenceError when the
    node budget is exhausted (so exhaustion claims stay honest).  It runs
    on the plan of ``_row_plan``: it branches only at plan rows without
    lookup columns, trying only the dst rows that agree with one site those
    rows already map, and counts every candidate it skips as a node; each
    following stretch of lookup rows runs in a plain loop, one node each.
    Once the permutations are fixed, one membership test checks each other
    row, one node each.  src is an index-unity support with k >= 1
    (``_check_compatible``), so k mapped sites fix a row's image.

    Every sigma is sigma0 o g, for the first sigma0 and g in the src
    support's automorphism group G.  Asked for a second sigma on an onto
    pair, the search finds G by ``_self_search`` (once per support, under
    a node budget of its own, max_nodes) and walks sigma0 o G in the
    backtracking order, one node per sigma after those up to sigma0.
    Backtracking spends at least that, so at every budget the walk yields
    a prefix of the same sigmas at least as long.  G is walked only under
    a budget that covers its self-search, which is not rerun under a
    budget it ran out of; otherwise the backtracking goes on.  So the
    sigmas do not depend on which searches ran before.

    ``fixed``, which only ``lm_match`` passes, is its ``_Screen``.  When
    the screen gives points (an exact pair whose src turns differ from
    their most common one on few rows Z), the walk follows G's orbit of Z
    instead of G (``_Group.orbit``): one node per image of the orbit's
    search, then for each point other than Z one node and one item,
    sigma0 o g for the g the tree gives when the point passes its test,
    else None.  Only a passing point's g is composed.
    """
    plan = _row_plan(frozenset(src.phases), src.k)
    dst_rows = frozenset(dst.phases)
    search = _backtrack(plan, src.n, src.d, dst_rows, max_nodes)
    first = next(search, None)
    if first is None:
        return
    nodes, sigma0 = first
    yield sigma0
    if len(dst_rows) == len(src.phases):
        group = plan.group
        if group is None and max_nodes > plan.tried:
            group = _self_search(plan, src.n, src.d, max_nodes)
        if group is not None and group.cost <= max_nodes:
            points = None if fixed is None else fixed.points()
            if points is not None:
                z, test = points
                inc = _incidence(frozenset(src.phases), src.n, src.d)
                tree, cost = group.orbit(inc, z, max_nodes - nodes)
                nodes += cost
                fixed.walk = {"group_order": group.order, "orbit": len(tree)}
                for point in itertools.islice(tree, 1, None):
                    nodes += 1
                    if nodes > max_nodes:
                        raise EquivalenceError("search budget exhausted")
                    yield _compose(sigma0, group.element(tree, point)) if test(point) else None
                return
            for sigma in group.coset(sigma0):
                nodes += 1
                if nodes > max_nodes:
                    raise EquivalenceError("search budget exhausted")
                yield sigma
            return
    for _, sigma in search:
        yield sigma


def _backtrack(plan, n, d, dst_rows, max_nodes, orbits=None):
    """The backtracking of ``_iter_support_sigmas`` on a compiled plan:
    yields (nodes so far, sigma) for each sigma and returns the node count.
    Each lookup table (k symbols -> dst row) is built in one pass, by
    zipping the sorted dst rows' columns at its k sites.

    With ``orbits`` (the growing levels of a ``_Group``) it is the
    self-search of ``_self_search``, on the plan's own row set: at a branch
    row the identity reaches it skips the candidates in the row's orbit,
    and it yields each sigma other than the identity, then goes back to
    the branch row where that sigma leaves the identity."""
    ordered = sorted(dst_rows)
    total = len(ordered)
    fwd = [[-1] * d for _ in range(n)]  # fwd[j][a]: the image of symbol a at site j
    back = [[-1] * d for _ in range(n)]  # back[j][b]: the symbol whose image is b
    # index unity: the symbols on any k sites fix the dst row
    dcols = _columns(ordered, n)
    tables = {cols: dict(zip(zip(*[dcols[c] for c in cols]), ordered))
              for cols in {cols for _, cols, _, _ in plan.steps if cols}}
    # the src rows carry every k-symbol tuple at cols, so every sigma's
    # images do: a dst row set missing one (not index-unity) has no sigma
    if any(len(table) < d ** len(cols) for cols, table in tables.items()):
        return 0
    # each lookup bound to its table and to the maps of its cols
    segments = [(branch, [(tables[cols], [fwd[j] for j in cols], symbols, expect, pairs)
                          for cols, symbols, expect, pairs in lookups], undo)
                for branch, lookups, undo in plan.segments]
    rest, rest_cols = plan.rest, plan.rest_cols
    bottom = len(segments)
    saved = [None] * bottom
    memo = {}
    nodes = 0
    ident = 0  # how many leading branch rows are placed on themselves

    def candidates(row, j0, b):
        """(position, dst row) in the order of the full candidate list
        (identity first, then sorted), for the dst rows with b at j0."""
        pivot = ordered.index(row) if row in dst_rows else -1
        head = [(0, row)] if pivot >= 0 and (j0 is None or row[j0] == b) else []
        return head + [(i + (i < pivot), c) for i, c in enumerate(ordered)
                       if c != row and (j0 is None or c[j0] == b)]

    def place(image, pairs):
        for j, a in pairs:
            b = fwd[j][a] = image[j]
            back[j][b] = a

    def unplace(pairs):
        for j, a in pairs:
            back[j][fwd[j][a]] = -1
            fwd[j][a] = -1

    depth, enter = 0, True
    while depth >= 0:
        if depth == bottom:  # every pair is mapped: check the other rows
            sigma = tuple(map(tuple, fwd))
            passed = len(list(itertools.takewhile(dst_rows.__contains__,
                                                  _images(sigma, rest_cols))))
            nodes += passed + (passed < len(rest))  # up to the first miss
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            if passed == len(rest) and (orbits is None or ident < bottom):
                yield nodes, sigma
                if orbits is not None:  # back to where sigma leaves the identity
                    for m in range(bottom - 1, ident, -1):
                        unplace(segments[m][2][-1])
                    depth = ident + 1
            depth, enter = depth - 1, False
            continue
        (row, j0, expect, pairs), lookups, undo = segments[depth]
        if enter:
            b = None if j0 is None else fwd[j0][row[j0]]
            cands = memo.get((depth, b))
            if cands is None:
                cands = memo[depth, b] = candidates(row, j0, b)
            at, last = 0, -1
        else:
            cands, at, last = saved[depth]
            unplace(undo[-1])
            ident = min(ident, depth)
        while at < len(cands):
            pos, cand = cands[at]
            at += 1
            nodes += pos - last
            last = pos
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            if tuple(map(getitem, back, cand)) != expect:
                continue
            if orbits is not None and ident == depth and cand != row \
                    and cand in orbits[depth]:
                continue
            place(cand, pairs)
            placed = len(lookups)
            for m, (table, maps, symbols, lexpect, lpairs) in enumerate(lookups):
                image = table[tuple(map(getitem, maps, symbols))]
                if tuple(map(getitem, back, image)) != lexpect:
                    placed = m
                    break
                place(image, lpairs)
            # one node per lookup up to the first clash; nothing in the
            # stretch yields, so the budget is checked once after it
            nodes += placed + (placed < len(lookups))
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            if placed == len(lookups):
                saved[depth] = cands, at, last
                if ident == depth and cand == row:
                    ident += 1
                depth, enter = depth + 1, True
                break
            unplace(undo[placed])
        else:
            # the skipped candidates after the last one tried
            nodes += total - 1 - last
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            depth, enter = depth - 1, False
    return nodes


def lm_match(src: MinimalSupportState, dst: MinimalSupportState,
             max_nodes: int = DEFAULT_MAX_NODES) -> EquivalenceCertificate:
    """Complete decision of local-monomial equivalence.

    Searches all per-site symbol permutations that map support onto support;
    for each, the diagonal phases are an exact linear system over turns
    mod 1.  The first witness (identity-first ordering) is replay-verified
    before being returned: on integer turns for an exact pair
    (``_replay_exact``), with no image state built, and through ``apply``
    and ``states_equal_up_to_global_phase``, within the tolerance, for a
    float pair.

    When the first sigma has no diagonal completion and the pair is exact,
    the cokernel characters of the src turns and of the pulled-back dst
    turns are compared: every other sigma is that one composed with a
    support automorphism, which permutes the cokernel, so unequal orders
    exclude every sigma at once (``cokernel-character``).  Otherwise the
    later sigmas are tried (``search-exhausted``), each by the cokernel
    test carried over from the first (``_diagonal_solver``'s screen); only
    those that pass are solved.  ``stats`` counts the ``solves`` and
    ``coker_rejects``, which sum to ``sigmas_tested``.

    The sigmas are those of ``_iter_support_sigmas``, in its order, with
    the screen as its ``fixed``: after the first, once a budget covers the
    group's self-search, the coset of the src support's automorphism group
    G, one node each; or, for an exact pair whose src turns differ from
    their most common one on rows Z no more than the shortest cokernel
    row, one sigma0 o g per point g(Z) of Z's G-orbit, since the test reads
    g(Z) alone.  That walk yields None for a point that fails its test, a
    reject, and ``stats`` records ``group_order`` and the ``orbit`` length
    when it ran; an equivalent pair's witness is then that of the first
    point that passes.
    So ``stats["sigmas_tested"]`` and the budget verdicts do not depend on
    whether that group is already recorded; only the time to
    reach each sigma does.  The diagonal systems' incidence rows,
    elimination and cokernel tables are built once per src support
    (``_incidence``).  dst needs rows in range only: any sigma proves its
    index unity, and a row set without it yields no sigma, which
    ``decide_slocc`` then checks.
    """
    _check_compatible(src, dst)
    exact = src.is_exact and dst.is_exact
    stats = {"sigmas_tested": 0, "solves": 0, "coker_rejects": 0}
    solve, orders, screen = _diagonal_solver(src, dst)
    verdict, reason, witness = "inequivalent", "search-exhausted", None
    details = {"searched": "all support-compatible local permutations"}
    try:
        for sigma in _iter_support_sigmas(src, dst, max_nodes, screen):
            stats["sigmas_tested"] += 1
            if not screen(sigma):
                stats["coker_rejects"] += 1
                continue
            stats["solves"] += 1
            witness = solve(sigma)
            if witness is not None:
                # the solved system enforces witness(src) == dst outright
                verdict, reason, details = "equivalent", "lm-witness", None
                if exact:
                    _replay_exact(witness, src, dst)
                elif states_equal_up_to_global_phase(witness.apply(src), dst) is None:
                    # a row misses by over the tolerance
                    verdict, reason, witness = "inconclusive", "float-witness-failed-replay", None
                break
            if orders is not None and stats["sigmas_tested"] == 1:
                o_src, o_dst = orders(sigma)
                if o_src != o_dst:
                    reason = "cokernel-character"
                    details = {"orders": {"src": o_src, "dst": o_dst}}
                    break
    except EquivalenceError:
        verdict, reason, details = "inconclusive", "search-budget-exhausted", None
    return EquivalenceCertificate(verdict, witness=witness, reason=reason, details=details,
                                  exact=exact, stats={**stats, **screen.walk})


def _replay_exact(witness, src, dst):
    """AssertionError unless each row's image under the exact witness
    (``LocalOperator.image_turns``, read with dst) is a dst row, with one
    turn difference mod q from it (``phases.turn_difference``)."""
    q, image, rest = witness.image_turns(src, dst.phases.values())
    turns = dict(zip(dst.phases, rest))
    pairs = [(t, turns[row]) for row, t in image if row in turns]
    if not len(pairs) == len(image) == len(turns) or turn_difference(q, pairs) is None:
        raise AssertionError("diagonal solution failed replay")


def _lm_automorphisms(s: MinimalSupportState, max_nodes: int) -> List[LocalOperator]:
    """One monomial self-witness per per-site permutation tuple admitting a
    diagonal completion (free diagonal parameters zeroed), sorted by tuple.

    When every turn of s is one value, each sigma's right-hand side is zero,
    so every sigma is solved by the zero diagonals, the solution the solve
    would give, and none is solved."""
    _check_compatible(s, s)
    sigmas = _iter_support_sigmas(s, s, max_nodes)
    q, turns = turn_numerators(s.phases.values())
    if len(set(turns)) == 1:
        zero = (q, [0] * (s.n * s.d))
        return [_monomial(sigma, zero) for sigma in sorted(sigmas)]
    solve, _, screen = _diagonal_solver(s, s)
    found = {}
    for sigma in sigmas:
        w = screen(sigma) and solve(sigma)
        if w:
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
    sites = [SiteOperator.butson(b) for b in enumerate_bh(src.d)]
    for combo in itertools.product(sites, repeat=src.n):
        layer = LocalOperator(combo)
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
    """The one N = 2k decision rule: LM branch, then Butson layers.

    lm_match runs first in every regime, and its witness or budget stop is
    returned as it stands.  After an lm_match inequivalence the pair is
    inconclusive (``outside-small-regime``) unless small_regime(k, d) holds,
    since only there are Butson layers known to exhaust the non-monomial
    equivalences.  Inside it, the verdict is inequivalent when the k > 2
    Butson-form condition cond_butson fails too (``details["lm_reason"]``
    names lm_match's exclusion: an exhausted search or unequal cokernel
    character orders); otherwise every per-site tuple of BH(d,d) class
    representatives is applied to src and the residual monomial matching
    is delegated to lm_match.  Only that layer loop enumerates BH(d,d), so
    only it stops at _BH_CAP, and its misses are reported as inconclusive.
    Every certificate after an lm_match inequivalence carries lm_match's
    ``stats``, with ``butson_tuples`` added where the layer loop ran.
    """
    _check_compatible(src, dst)
    if src.n != 2 * src.k:
        raise EquivalenceError("butson_match applies to N = 2k only")
    return _butson_after(src, dst, lm_match(src, dst, max_nodes=max_nodes), max_nodes)


def _butson_after(src, dst, lm, max_nodes):
    """butson_match's rule after its lm_match certificate lm."""
    if lm.verdict != "inequivalent":
        return lm
    exact = lm.exact
    if not small_regime(src.k, src.d):
        return EquivalenceCertificate(
            "inconclusive", reason="outside-small-regime",
            details={"k": src.k, "d": src.d, "lm_reason": lm.reason},
            exact=exact, stats=lm.stats)
    ok_b, where_b = cond_butson(src, dst)
    if not ok_b:
        return EquivalenceCertificate(
            "inequivalent", reason="lm-exhausted-butson-condition-violated",
            details={"lm_reason": lm.reason, "butson_condition": where_b},
            exact=exact, stats=lm.stats)
    if src.d > _BH_CAP:
        return EquivalenceCertificate(
            "inconclusive", reason="butson-enumeration-cap",
            details={"cap": _BH_CAP}, exact=exact, stats=lm.stats)

    tried = 0
    for tried, witness in enumerate(_butson_layer_witnesses(src, dst, max_nodes), 1):
        if witness is not None:
            return EquivalenceCertificate(
                "equivalent", witness=witness, reason="butson-witness",
                exact=exact, stats={**lm.stats, "butson_tuples": tried})

    return EquivalenceCertificate(
        "inconclusive", reason="searched-branches-found-no-witness",
        details={"butson_tuples": tried}, exact=exact,
        stats={**lm.stats, "butson_tuples": tried})


def decide_slocc(src, dst, max_nodes: int = DEFAULT_MAX_NODES) -> EquivalenceCertificate:
    """SLOCC (equivalently LU, for these critical states) dispatch.

    Minimal-support pairs with 2k < N are decided completely by lm_match,
    and N = 2k pairs by butson_match, in every regime.  When only one side
    reads as a minimal-support AME(5,d) state, ``reductions.lu_witness``
    compares the LU invariant I_pi of the two inputs, and a difference is
    ``inequivalent / lu-invariant``; ``details["minimal_side"]`` names the
    minimal side.  Everything else is inconclusive.

    The invariant settles a pair of critical states, and a state is
    critical when its one-party marginals are maximally mixed (Kempf and
    Ness 1979).  So the screen's head, which searches nothing, runs before
    any uniformity is read: when it certifies, the other side needs only
    to be critical, which the screen reads from its code and its modulus
    with no partial trace (``_Reading.critical``), and a side that is not
    raises EquivalenceError.  Otherwise both sides' uniformity decides
    ``different-uniformity`` and ``different-shape`` first, and the rest of
    the screen's search runs after them.

    src is validated by ``_read_minimal``, once per support.  A
    MinimalSupportState dst of src's shape is read with its rows checked
    only (``_unproved``): a sigma mapping src's support onto dst's rows
    carries src's index unity onto dst, site by site.  Only a search that
    yields no sigma leaves dst to ``_read_minimal``, and a dst failing it is
    dispatched as not minimal; the search runs once either way.
    """
    # looked up per call: perfbench/spans.py traces by rebinding states.uniformity
    from .states import uniformity
    ma, mb = _read_minimal(src), None
    unproved = _unproved(dst, ma)
    if unproved is None:
        mb = _read_minimal(dst)
    else:
        lm = lm_match(ma, unproved, max_nodes=max_nodes)
        if lm.stats["sigmas_tested"] or _read_minimal(dst) is not None:
            return lm if 2 * ma.k < ma.n else _butson_after(ma, unproved, lm, max_nodes)
    reading = None
    if (ma is None) != (mb is None):
        side, minimal, other = ("src", ma, dst) if ma is not None else ("dst", mb, src)
        reading = _lu_reading(minimal, other)
        found = None if reading is None else _lu_head(reading)
        if found is not None:
            if not reading.critical:
                raise EquivalenceError("inputs must be k-uniform critical states")
            return _lu_certificate(side, found)
    ka = uniformity(src) if ma is None else ma.k
    kb = uniformity(dst) if mb is None else mb.k
    if ka == 0 or kb == 0:
        raise EquivalenceError("inputs must be k-uniform critical states")
    if ka != kb:
        return EquivalenceCertificate(
            "inequivalent", reason="different-uniformity",
            details={"src": ka, "dst": kb})
    if (src.n, src.d) != (dst.n, dst.d):
        return EquivalenceCertificate("inequivalent", reason="different-shape")
    if ma is not None and mb is not None:
        if 2 * ka < ma.n:
            return lm_match(ma, mb, max_nodes=max_nodes)
        return butson_match(ma, mb, max_nodes=max_nodes)
    found = None if reading is None else _lu_rest(reading)
    if found is not None:
        return _lu_certificate(side, found)
    return EquivalenceCertificate(
        "inconclusive", reason="no-complete-procedure-for-this-pair")


def _lu_certificate(side, found):
    """The ``lu-invariant`` certificate of an lu_witness answer, with
    ``side`` the minimal one."""
    details, tried, exact = found
    return EquivalenceCertificate(
        "inequivalent", reason="lu-invariant", details={"minimal_side": side, **details},
        exact=exact, stats={"tuples_tried": tried})


def _read_minimal(s) -> Optional[MinimalSupportState]:
    """s as a validated minimal-support state, k inferred from its term
    count, or None.

    A d^k-term equal-modulus state on an index-unity support is exactly
    k-uniform when 2k <= N (no two rows agree on N - k >= k sites); more
    than d^(N // 2) terms would give 2k > N, so such a state is not read.
    Either state class reads itself (``as_minimal``), so a
    MinimalSupportState with that k is returned as it is, with no copy; the
    support check (``states._check_support``) caches passing supports only.
    """
    rows = s.phases if isinstance(s, MinimalSupportState) else s.terms
    return s.as_minimal() if len(rows) <= s.d ** (s.n // 2) else None


def _unproved(dst, ma) -> Optional[MinimalSupportState]:
    """dst read with ma's k >= 1, index unity unchecked, when it is a
    MinimalSupportState of ma's (n, d) and term count whose rows pass
    ``states._check_rows`` (a search indexes by their symbols); else None."""
    if (ma is None or ma.k < 1 or not isinstance(dst, MinimalSupportState)
            or (dst.n, dst.d, len(dst.phases)) != (ma.n, ma.d, len(ma.phases))):
        return None
    try:
        _check_rows(dst.phases, dst.n, dst.d)
    except StateError:
        return None
    return dst if dst.k == ma.k else MinimalSupportState(
        dst.n, dst.d, ma.k, dst.phases, check=False)


def family_classes(base: MinimalSupportState, marked: Tuple[int, ...],
                   turns: Sequence) -> dict:
    """Pairwise class report for phase decorations at one marked support index.

    Pairs whose marked phases agree or are complex conjugate are never
    claimed separated, and are not searched: no written argument covers the
    conjugate pairing.  Every other pair gets decide_slocc's verdict, with
    an inconclusive one reported as ``not-separated-<reason>``; each pair
    records the certificate's ``reason`` and ``details`` (None for the two
    unsearched cases).
    """
    if base.k <= 2:
        raise EquivalenceError("family analysis applies to k > 2")
    phases = [Phase(t) for t in turns]
    members = [with_phases(base, {tuple(marked): p}) for p in phases]
    report = {"turns": list(turns), "pairs": []}
    for a, b in itertools.combinations(range(len(members)), 2):
        pair = {"pair": (a, b), "reason": None, "details": None}
        if phases[a].close_to(phases[b]):
            verdict = "not-separated-equal-phase"
        elif phases[a].close_to(phases[b].conj()):
            verdict = "not-separated-conjugate-phase"
        else:
            cert = decide_slocc(members[a], members[b])
            pair.update(reason=cert.reason, details=cert.details)
            verdict = cert.verdict
            if verdict == "inconclusive":
                verdict = "not-separated-" + cert.reason
        pair["verdict"] = verdict
        report["pairs"].append(pair)
    return report
