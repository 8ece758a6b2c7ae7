"""The support search and the mod-1 solve against the algorithms they replaced.

``_eliminate`` reduces each coefficient matrix once, building the
unimodular transform U beside it, ``solve_turn_system`` carries every
right-hand side through U's rows, and
``_iter_support_sigmas`` finds the image of a source row with one lookup
once k of its symbols are mapped, and checks every row placed after the
permutations are fixed with one membership test.  The straightforward
versions below eliminate [A | b] afresh for every system, back-substitute
in Fractions (a float b as the binary fractions its floats hold), and scan every destination row for every source row.  The
package must reproduce them
exactly: the same theta (or None) for every system, and the same permutation
tuples in the same order.  On symbol-permuted sources, where the search's row
order and sorted order part ways early, the search must still yield exactly
the row scan's set, once each; and the cokernel rows that decide exact
feasibility must annihilate the coefficient matrix.  ``lm_match`` decides a
pair whose cokernel character orders differ after its first sigma; its
verdicts must match a search that solves every sigma.  It solves only the
first sigma and the sigmas that pass the cokernel test carried over from
the first; that test must agree with the full solve on every sigma.

The search runs on a compiled plan.  After its first sigma0 on an onto
pair it finds the src support's automorphism group G by an orbit-pruned
self-search and walks the coset sigma0 o G, one node per sigma.  Both
must give what the recursive form below gives, one generator frame per
plan row and every dst row a candidate at each branching row: the same
sigmas in the same order at an unlimited budget; at every budget a prefix
of them at least as long; and exactly the recursive search's sigmas and
budget error wherever the self-search cannot finish, whether or not the
row set's group is recorded.  The group's order, the product of its orbit
lengths, must be the number of sigmas of the recursive search from the
support onto itself.
"""

import math
import random
from fractions import Fraction
from operator import getitem

import pytest
from hypothesis import example, given, settings, strategies as st

from ameslocc import equivalence
from ameslocc.butson import fourier, tensor_butson
from ameslocc.equivalence import (DEFAULT_MAX_NODES, EquivalenceError,
                                  _diagonal_solver, _iter_support_sigmas,
                                  _row_plan, _self_search,
                                  butson_match, lm_automorphism_sigmas, lm_match)
from ameslocc.modsolve import _eliminate, solve_turn_system
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import Phase, get_tolerance, root_of_unity
from ameslocc.states import (MinimalSupportState, ame64_phi, ame_linear_5,
                             construct_ame43, construct_ame44, construct_ame64,
                             construct_linear, with_phases)


def reference_solve(rows, rhs, num_vars, exact=True):
    """Joint integer elimination of [A | b] on every call, in Fractions; a
    float b is read as the binary fractions its floats hold, its zero rows
    may miss a whole turn by the tolerance, and its turns are rounded once."""
    m = len(rows)
    a = [list(map(int, r)) for r in rows]
    b = [Fraction(x) for x in rhs]
    pivots = []
    prow = 0
    for col in range(num_vars):
        sel = next((i for i in range(prow, m) if a[i][col]), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        b[prow], b[sel] = b[sel], b[prow]
        changed = True
        while changed:
            changed = False
            for i in range(prow + 1, m):
                if not a[i][col]:
                    continue
                p, c = a[prow][col], a[i][col]
                if abs(c) < abs(p):
                    a[prow], a[i] = a[i], a[prow]
                    b[prow], b[i] = b[i], b[prow]
                    p, c = a[prow][col], a[i][col]
                q = c // p
                for j in range(num_vars):
                    a[i][j] -= q * a[prow][j]
                b[i] = b[i] - q * b[prow]
                if a[i][col]:
                    changed = True
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for i in range(prow, m):
        assert not any(a[i])
        if exact:
            if b[i].denominator != 1:
                return None
        elif min(b[i] % 1, 1 - b[i] % 1) > get_tolerance():
            return None
    theta = [Fraction(0)] * num_vars
    for (row, col) in reversed(pivots):
        acc = b[row]
        for j in range(col + 1, num_vars):
            if a[row][j]:
                acc = acc - a[row][j] * theta[j]
        theta[col] = (Fraction(acc) / a[row][col]) % 1
    return theta if exact else [float(t) % 1.0 for t in theta]


def reference_sigmas(src, dst):
    """Every source row tries every destination row, identity image first."""
    n, d = src.n, src.d
    src_rows = sorted(src.phases)
    dst_set = set(dst.phases)
    dst_rows = sorted(dst_set)
    maps = [dict() for _ in range(n)]
    used = [set() for _ in range(n)]

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

    def rec(pos):
        if pos == len(src_rows):
            yield tuple(tuple(maps[j][a] for a in range(d)) for j in range(n))
            return
        row = src_rows[pos]
        first = [row] if row in dst_set else []
        for cand in first + [c for c in dst_rows if c != row]:
            if not compatible(row, cand):
                continue
            touched = [(j, a, b) for j, (a, b) in enumerate(zip(row, cand))
                       if a not in maps[j]]
            for j, a, b in touched:
                maps[j][a] = b
                used[j].add(b)
            yield from rec(pos + 1)
            for j, a, b in touched:
                used[j].discard(b)
                del maps[j][a]

    return list(rec(0))


def monomial_image(s, rng):
    """s under a random local monomial with 1/360-turn diagonals."""
    sites = []
    for _ in range(s.n):
        sigma = list(range(s.d))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(s.d)]))
    return LocalOperator(sites).apply(s)


def solve_turns(rows, values, num_vars, exact=True):
    """``solve_turn_system`` on the elimination of rows, in the (q, values)
    form the engine passes: Fraction turns as integer numerators over their
    common denominator (exact), or float turns with q = 1.0.  The turns come
    back as Fractions or floats, or None."""
    system = _eliminate(rows, num_vars)
    if not exact:
        got = solve_turn_system(system, values, num_vars, 1.0)
        return got and got[1]
    den = math.lcm(*(Fraction(x).denominator for x in values))
    got = solve_turn_system(system, [int(x * den) for x in values], num_vars, den)
    return got and [Fraction(x, got[0]) for x in got[1]]


def diagonal_system(src, dst, sigma):
    """The rows and exact rhs that lm_match solves for one sigma."""
    n, d = src.n, src.d
    rows, rhs = [], []
    for idx, w in sorted(src.phases.items()):
        coeff = [0] * (n * d)
        for j, a in enumerate(idx):
            coeff[j * d + a] += 1
        rows.append(coeff)
        out = tuple(sigma[j][a] for j, a in enumerate(idx))
        rhs.append((dst.phases[out] / w).turn)
    return rows, rhs


CASES = [("ame43", construct_ame43, 18), ("ame44", construct_ame44, None),
         ("ame5-linear-5", lambda: ame_linear_5(5), None),
         ("ame64", lambda: ame64_phi(Fraction(1, 16)), 192)]


@pytest.mark.parametrize("make, count", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_support_search_matches_row_scan(make, count):
    src = make()
    dst = monomial_image(src, random.Random(3))
    got = list(_iter_support_sigmas(src, dst, 10 ** 7))
    assert got == reference_sigmas(src, dst)
    if count is not None:
        assert len(got) == count


PLAN_CASES = CASES + [
    ("rs73", lambda: construct_linear(7, [[1, a, a * a % 7] for a in range(7)]), None),
    ("ame5-linear-37", lambda: ame_linear_5(37), None),
    ("ame87", lambda: construct_linear(7, [[1, a, a * a % 7, a ** 3 % 7]
                                           for a in range(7)] + [[0, 0, 0, 1]]), None)]


@pytest.mark.parametrize("make", [c[1] for c in PLAN_CASES],
                         ids=[c[0] for c in PLAN_CASES])
def test_row_order_plan_fixes_sigma(make):
    s = make()
    plan = _row_plan(frozenset(s.phases), s.k)
    placed, rest = [step[0] for step in plan.steps], list(plan.rest)
    assert sorted(placed + rest) == sorted(s.phases)
    assert rest == sorted(rest)
    mapped = set()
    for pos, (row, cols, _, _) in enumerate(plan.steps):
        pairs = set(enumerate(row))
        assert pos == 0 or not pairs <= mapped
        if cols is not None:
            assert len(cols) == s.k
            assert all((j, row[j]) in mapped for j in cols)
        mapped |= pairs
    assert mapped == {(j, a) for j in range(s.n) for a in range(s.d)}
    assert len(plan.steps) <= s.n * (s.d - 1) + 1


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_single_elimination_matches_per_call_loop(make):
    rng = random.Random(11)
    src = make()
    dst = monomial_image(src, rng)
    num_vars = src.n * src.d
    outcomes = set()
    for sigma in _iter_support_sigmas(src, dst, 10 ** 7):
        rows, rhs = diagonal_system(src, dst, sigma)
        noise = [Fraction(rng.randrange(360), 360) for _ in rhs]
        for b in (rhs, noise):
            for exact, values in ((True, b), (False, [float(x) for x in b])):
                want = reference_solve(rows, values, num_vars, exact)
                assert solve_turns(rows, values, num_vars, exact) == want
                outcomes.add(want is None)
    # AME(4,3)'s diagonal system has full row rank, so every rhs is solvable
    assert outcomes == ({False} if make is construct_ame43 else {True, False})


def test_back_substitution_matches_per_call_loop_off_unit_pivots():
    # [[2, 1], [0, 3]] grows the back substitution's denominator; the
    # random matrices have entries in -3..3, and 35 of their 96 pivots are
    # not +-1
    rng = random.Random(17)
    matrices = [[[2, 1], [0, 3]]]
    while len(matrices) < 40:
        m, n = rng.randrange(2, 5), rng.randrange(2, 5)
        matrices.append([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)])
    for rows in matrices:
        num_vars = len(rows[0])
        for den in (1, 2, 12, 360):
            x = [Fraction(rng.randrange(den), den) for _ in range(num_vars)]
            image = [sum(r * t for r, t in zip(row, x)) % 1 for row in rows]
            noise = [Fraction(rng.randrange(den), den) for _ in rows]
            for b in (image, noise):
                for exact, values in ((True, b), (False, [float(v) for v in b])):
                    want = reference_solve(rows, values, num_vars, exact)
                    got = solve_turns(rows, values, num_vars, exact)
                    assert got == want, (rows, values)


def test_back_substitution_denominator_grows():
    # theta_1 = 1/9 and theta_0 = (1/2 - 1/9) / 2 = 7/36, over a den of 6
    rows, b = [[2, 1], [0, 3]], [Fraction(1, 2), Fraction(1, 3)]
    assert solve_turns(rows, b, 2) == reference_solve(rows, b, 2) \
        == [Fraction(7, 36), Fraction(1, 9)]


@settings(max_examples=20, deadline=None)
@given(which=st.sampled_from(CASES[:3]), seed=st.integers(0, 2 ** 32 - 1))
def test_support_search_set_is_order_free(which, seed):
    rng = random.Random(seed)
    base = which[1]()
    perms = [rng.sample(range(base.d), base.d) for _ in range(base.n)]
    src = MinimalSupportState(base.n, base.d, base.k, {
        tuple(p[a] for p, a in zip(perms, idx)): w for idx, w in base.phases.items()})
    placed = [step[0] for step in _row_plan(frozenset(src.phases), src.k).steps]
    assert placed != sorted(src.phases)[:len(placed)]
    dst = monomial_image(src, rng)
    got = list(_iter_support_sigmas(src, dst, 10 ** 7))
    assert len(set(got)) == len(got)
    assert set(got) == set(reference_sigmas(src, dst))


@pytest.mark.parametrize("make", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_cokernel_rows_decide_exact_feasibility(make):
    rng = random.Random(13)
    src = make()
    rows, _ = diagonal_system(src, src, (tuple(range(src.d)),) * src.n)
    num_vars = src.n * src.d
    h, pivots, coker, _ = _eliminate(rows, num_vars)
    assert len(pivots) + len(coker) == len(rows)
    for c in coker:
        assert all(sum(v * rows[i][col] for i, v in c) == 0
                   for col in range(num_vars))
    outcomes = set()
    for _ in range(20):
        x = [Fraction(rng.randrange(360), 360) for _ in range(num_vars)]
        image = [sum(r * t for r, t in zip(row, x)) for row in rows]
        noise = [Fraction(rng.randrange(360), 360) for _ in rows]
        for b in (image, noise):
            infeasible = any(sum(v * b[i] for i, v in c).denominator != 1
                             for c in coker)
            assert (solve_turns(rows, b, num_vars) is None) == infeasible
            outcomes.add(infeasible)
    assert outcomes == ({False} if make is construct_ame43 else {True, False})


def reference_lm_verdict(src, dst):
    """Every sigma of the search through the diagonal solve, no shortcut."""
    solve = _diagonal_solver(src, dst)[0]
    for sigma in _iter_support_sigmas(src, dst, 10 ** 7):
        if solve(sigma) is not None:
            return "equivalent"
    return "inequivalent"


def decorate(s, rng, den):
    """s with m/den-turn phases on up to three random support rows."""
    rows = rng.sample(sorted(s.phases), rng.randrange(4))
    return with_phases(s, {idx: Phase(Fraction(rng.randrange(den), den))
                           for idx in rows})


DECORATED = [ame_linear_5(5), construct_ame44(), construct_ame64()]


@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from(DECORATED), den=st.sampled_from([4, 5, 16, 20, 360]),
       same=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lm_match_verdict_matches_full_search(base, den, same, seed):
    rng = random.Random(seed)
    src = decorate(base, rng, den)
    dst = monomial_image(src if same else decorate(base, rng, den), rng)
    cert = lm_match(src, dst, max_nodes=10 ** 7)
    assert cert.verdict == reference_lm_verdict(src, dst)
    if cert.reason == "cokernel-character":
        orders = cert.details["orders"]
        assert orders["src"] != orders["dst"]
        assert cert.stats["sigmas_tested"] == 1


@settings(max_examples=15, deadline=None)
@given(base=st.sampled_from(DECORATED), den=st.sampled_from([4, 5, 16, 20, 360]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_character_order_survives_local_monomials(base, den, seed):
    # an equivalent pair has equal orders under every sigma, so it never
    # takes the shortcut; each order is the lcm of the rows' own orders
    rng = random.Random(seed)
    src = decorate(base, rng, den)
    dst = monomial_image(src, rng)
    orders = _diagonal_solver(src, dst)[1]
    rows, _ = diagonal_system(src, src, (tuple(range(src.d)),) * src.n)
    coker = _eliminate(rows, src.n * src.d)[2]
    turns = [p.turn for _, p in sorted(src.phases.items())]
    want = math.lcm(*(sum(v * turns[i] for i, v in c).denominator for c in coker))
    for sigma in _iter_support_sigmas(src, dst, 10 ** 7):
        assert orders(sigma) == (want, want)


@pytest.mark.parametrize("turn, reason, sigmas", [
    (Fraction(1, 8), "cokernel-character", 1),
    (Fraction(15, 16), "search-exhausted", 2058)])
def test_reed_solomon_decorations_by_character_order(turn, reason, sigmas):
    rs = construct_linear(7, [[1, a, a * a % 7] for a in range(7)])
    src, dst = (with_phases(rs, {(0,) * 7: Phase(t)}) for t in (Fraction(1, 16), turn))
    cert = lm_match(src, dst)
    assert (cert.verdict, cert.reason) == ("inequivalent", reason)
    assert cert.stats["sigmas_tested"] == sigmas


def rs73():
    return construct_linear(7, [[1, a, a * a % 7] for a in range(7)])


def test_reed_solomon_search_solves_only_the_first_sigma(monkeypatch):
    # one decorated row, so each later sigma is decided by the image of
    # that row under sigma0^-1 o sigma alone: one memoised test per row
    reads = []

    class Touching(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    src, dst = (with_phases(rs73(), {(0,) * 7: Phase(t)})
                for t in (Fraction(1, 16), Fraction(5, 16)))
    # the support's one cache entry holds the cokernel table the search reads
    inc = equivalence._incidence(frozenset(src.phases), src.n, src.d)
    by_row, touching = inc.cokernel
    monkeypatch.setattr(inc, "cokernel", (by_row, Touching(touching)))
    cert = lm_match(src, dst)
    assert (cert.verdict, cert.reason) == ("inequivalent", "search-exhausted")
    assert cert.stats == {"sigmas_tested": 2058, "solves": 1, "coker_rejects": 2057}
    assert 0 < len(reads) == len(set(reads)) <= 343


def f2f2_ame44():
    layer = LocalOperator([SiteOperator.butson(tensor_butson(fourier(2), fourier(2)))] * 4)
    return layer.apply(construct_ame44()).as_minimal(k=2)


SCREENED = {"ame64": ame64_phi(Fraction(1, 16)), "rs73": rs73(),
            "ame5-linear-5": ame_linear_5(5), "f2f2-ame44": f2f2_ame44()}


def decorate_side(s, rng, den, dense):
    """decorate, or m/den-turn phases on every support row when dense."""
    if not dense:
        return decorate(s, rng, den)
    return with_phases(s, {idx: Phase(Fraction(rng.randrange(den), den))
                           for idx in s.phases})


@settings(max_examples=24, deadline=None)
@given(base=st.sampled_from(sorted(SCREENED)), den=st.sampled_from([4, 16, 20, 360]),
       dense=st.tuples(st.booleans(), st.booleans()), same=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(base="rs73", den=16, dense=(False, False), same=True, seed=7)
@example(base="rs73", den=360, dense=(True, False), same=False, seed=7)
@example(base="ame5-linear-5", den=360, dense=(True, True), same=True, seed=1)
def test_screen_matches_full_solve_for_every_sigma(base, den, dense, same, seed):
    # sparse decorations take the memoised transported test, dense ones the
    # row-by-row direct test; both must agree with solving the full rhs
    rng = random.Random(seed)
    src = decorate_side(SCREENED[base], rng, den, dense[0])
    dst = monomial_image(src if same else decorate_side(SCREENED[base], rng, den, dense[1]), rng)
    solve, _, screen = _diagonal_solver(src, dst)
    verdicts = [(screen(sigma), solve(sigma) is not None)
                for sigma in _iter_support_sigmas(src, dst, 10 ** 7)]
    assert verdicts[0][0]
    assert all(passed == solved for passed, solved in verdicts[1:])
    assert any(solved for _, solved in verdicts) or not same


def recursive_sigmas(src, dst, max_nodes):
    """The support search in recursive form: the plan of ``_row_plan``,
    one generator frame per plan row, one lookup at a row with cols and
    every dst row (identity first) at one without; each candidate and each
    checked row is one node.  Returns the node count at its end."""
    n, d = src.n, src.d
    compiled = _row_plan(frozenset(src.phases), src.k)
    plan, rest = [step[:2] for step in compiled.steps], compiled.rest
    dst_set = set(dst.phases)
    dst_rows = sorted(dst_set)
    by_cols = {cols: {tuple(r[c] for c in cols): r for r in dst_rows}
               for _, cols in plan if cols}
    maps = [dict() for _ in range(n)]
    used = [set() for _ in range(n)]
    nodes = 0

    def assign(row, cand):
        touched = []
        for j, (a, b) in enumerate(zip(row, cand)):
            got = maps[j].get(a)
            if got is None:
                if b in used[j]:
                    return None
                touched.append((j, a, b))
            elif got != b:
                return None
        for j, a, b in touched:
            maps[j][a] = b
            used[j].add(b)
        return touched

    def rec(pos):
        nonlocal nodes
        if pos == len(plan):
            sigma = tuple(tuple(maps[j][a] for a in range(d)) for j in range(n))
            for row in rest:
                nodes += 1
                if nodes > max_nodes:
                    raise EquivalenceError("search budget exhausted")
                if tuple(map(getitem, sigma, row)) not in dst_set:
                    return
            yield sigma
            return
        row, cols = plan[pos]
        cands = ((by_cols[cols][tuple(maps[j][row[j]] for j in cols)],) if cols
                 else sorted(dst_rows, key=row.__ne__))
        for cand in cands:
            nodes += 1
            if nodes > max_nodes:
                raise EquivalenceError("search budget exhausted")
            touched = assign(row, cand)
            if touched is None:
                continue
            yield from rec(pos + 1)
            for j, a, b in touched:
                used[j].discard(b)
                del maps[j][a]

    yield from rec(0)
    return nodes


def search_cost(src, dst):
    """The nodes of the whole recursive search."""
    search = recursive_sigmas(src, dst, 10 ** 9)
    while True:
        try:
            next(search)
        except StopIteration as stop:
            return stop.value


def budgeted(sigmas):
    """(the sigmas yielded, whether the node budget ran out)."""
    out = []
    try:
        for sigma in sigmas:
            out.append(sigma)
    except EquivalenceError:
        return out, True
    return out, False


@pytest.fixture
def fresh_groups():
    """No row set's group recorded when the test starts or after it ends:
    ``_row_plan`` keeps each group with its plan."""
    _row_plan.cache_clear()
    yield
    _row_plan.cache_clear()


def recorded_group(s):
    """The group of s's support, recorded by the self-search that a full
    search onto s runs at its second sigma."""
    list(_iter_support_sigmas(s, s, 10 ** 7))
    group = _row_plan(frozenset(s.phases), s.k).group
    assert group is not None
    return group


RS73 = ("rs73", PLAN_CASES[4][1], 2058)


@pytest.mark.parametrize("make, count", [c[1:] for c in CASES + [RS73]],
                         ids=[c[0] for c in CASES + [RS73]])
def test_recorded_group_replays_the_search(make, count, fresh_groups):
    # RS[7,3]'s 343 rows are too many for the row scan: it is checked
    # against the recursive search, which the budget test below pins to
    # the search on every CASES support, and the search there to the row
    # scan
    src = make()
    group = recorded_group(src)
    rng = random.Random(23)
    for _ in range(3):
        dst = monomial_image(src, rng)
        want = (list(recursive_sigmas(src, dst, 10 ** 7)) if len(src.phases) > 100
                else reference_sigmas(src, dst))
        assert list(_iter_support_sigmas(src, dst, 10 ** 7)) == want
        assert _row_plan(frozenset(src.phases), src.k).group is group
        if count is not None:
            assert len(want) == count


BUDGETS = [1, 5, 17, 50, 333, 1000, 4321, 10 ** 7]


def latin_square(op, d):
    """The table of a group of order d as a phase-free row set on three
    sites, (a, b, a.b): index unity on every two."""
    return MinimalSupportState(3, d, 2, {(a, b, op(a, b)): Phase(0)
                                         for a in range(d) for b in range(d)})


def budget_pairs():
    """(id, src, dst): each CASES support onto a monomial image, the Z4
    table onto an image, and the Z4 and Klein tables onto each other.
    Those two are not isotopic, so no sigma exists.  On the group tables
    some lookups clash, and from the Klein table some rows checked after
    the plan miss; neither happens on the CASES supports."""
    z4 = latin_square(lambda a, b: (a + b) % 4, 4)
    klein = latin_square(lambda a, b: a ^ b, 4)
    pairs = [(name, make()) for name, make, _ in CASES] + [("latin-z4", z4)]
    for name, src in pairs:
        yield name, src, monomial_image(src, random.Random(29))
    yield "latin-z4-to-klein", z4, klein
    yield "latin-klein-to-z4", klein, z4


BUDGET_PAIRS = list(budget_pairs())


@pytest.mark.parametrize("recorded", [False, True], ids=["fresh", "recorded"])
@pytest.mark.parametrize("src, dst", [p[1:] for p in BUDGET_PAIRS],
                         ids=[p[0] for p in BUDGET_PAIRS])
def test_budgeted_search_matches_recursive_search(src, dst, recorded, fresh_groups):
    # the recursive search ends at node count cost: one node less runs out
    # of budget.  Budgets on both sides of the self-search's cost: below it
    # the search backtracks exactly as the recursive one, from it on it
    # walks the coset, one node per sigma, and so gets at least as far
    cost = search_cost(src, dst)
    full = list(recursive_sigmas(src, dst, cost))
    self_cost = recorded_group(src).cost
    assert BUDGETS[0] < self_cost <= BUDGETS[-1]
    assert budgeted(_iter_support_sigmas(src, dst, 10 ** 9)) == (full, False)
    for max_nodes in BUDGETS + [cost - 1, cost, self_cost - 1, self_cost]:
        if not recorded:
            _row_plan.cache_clear()
        got, out = budgeted(_iter_support_sigmas(src, dst, max_nodes))
        want, want_out = budgeted(recursive_sigmas(src, dst, max_nodes))
        assert want_out == (max_nodes < cost)
        if max_nodes < self_cost or not got:  # no walk: no group, or no sigma0
            assert (got, out) == (want, want_out)
        else:
            assert len(want) <= len(got) and got == full[:len(got)]
            assert out == (len(got) < len(full))


def test_recorded_cost_over_budget_stays_inconclusive(fresh_groups):
    # the 50-node butson_match of test_equivalence, on a recorded support:
    # 50 nodes do not cover the self-search, so the search backtracks and
    # runs out of budget as before
    assert recorded_group(ame64_phi(Fraction(1, 16))).cost > 50
    cert = butson_match(ame64_phi(Fraction(1, 16)), ame64_phi(Fraction(3, 16)),
                        max_nodes=50)
    assert cert.verdict == "inconclusive"
    assert "budget" in cert.reason


GROUP_CASES = [(name, make, order) for (name, make, _), order
               in zip(CASES, (18, 48, 100, 192))] + [
    ("rs73", rs73, 2058),
    ("latin-z4", lambda: latin_square(lambda a, b: (a + b) % 4, 4), 32),
    ("latin-klein", lambda: latin_square(lambda a, b: a ^ b, 4), 96),
    ("ame5-linear-7", lambda: ame_linear_5(7), 294)]


@pytest.mark.parametrize("name, make, order", GROUP_CASES, ids=[c[0] for c in GROUP_CASES])
def test_self_search_group_matches_recursive_self_search(name, make, order, fresh_groups):
    # the group found with orbit pruning has as many elements as the
    # unpruned recursive search finds sigmas from the support onto itself
    s = make()
    group = recorded_group(s)
    sigmas = list(recursive_sigmas(s, s, 10 ** 9))
    assert math.prod(map(len, group.levels)) == len(sigmas) == order
    if name == "rs73":
        return  # every one of its 2058 sigmas is solved: seconds
    solve = _diagonal_solver(s, s)[0]
    assert lm_automorphism_sigmas(s) == sorted(x for x in sigmas if solve(x) is not None)


@pytest.mark.parametrize("make, order", [
    (lambda: construct_linear(7, [[1, a, a * a % 7, a ** 3 % 7] for a in range(7)]
                              + [[0, 0, 0, 1]]), 14406),
    (lambda: ame_linear_5(37), 49284)], ids=["ame87", "ame5-linear-37"])
def test_self_search_group_orders_of_large_supports(make, order, fresh_groups):
    # 7^4 codeword translations times 6 scalars, and 37^2 times 36; the
    # recursive self-search of AME(8,7) takes about half a minute
    s = make()
    group = _self_search(_row_plan(frozenset(s.phases), s.k), s.n, s.d, DEFAULT_MAX_NODES)
    assert math.prod(map(len, group.levels)) == order
