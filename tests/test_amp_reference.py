"""Exact amplitude arithmetic against the Fraction-keyed form it replaced.

``Amp`` holds one integer form: (q, counts, den) stands for
sum(c * w_q^e) / den.  ``FractionAmp`` below keeps the earlier
representation, a dict from Fraction turn to Fraction coefficient, with
its arithmetic, as the reference.  Both are formal sums of roots of unity,
so on random exact amplitudes every operation must give the same term map
(once zero coefficients are dropped), the same zero test, the same
equality and the same magnitude-and-phase split of one-term values.  Dense Butson layers applied
site by site in the reference arithmetic must give the same images, term
by term, and the AME(4,4) automorphisms with Butson layers are pinned.

``Phase`` likewise holds an exact turn as a reduced int pair in place of
the Fraction it held before; its arithmetic, equality, hashing and round
trips are checked against Fraction turns mod 1.
"""

import cmath
import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ameslocc.butson import fourier, tensor_butson
from ameslocc.equivalence import automorphisms
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import Amp, Phase, exponent_sum_is_zero
from ameslocc.states import construct_ame43, construct_ame44, construct_linear


class FractionAmp:
    """An exact amplitude as {Fraction turn: Fraction coefficient}."""

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def of(amp):
        q, counts, den = amp.form()
        return FractionAmp({Fraction(e, q): Fraction(c, den) for e, c in counts.items()})

    def canonical(self):
        return {t: c for t, c in self.terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for t, c in other.terms.items():
            old = out.get(t)
            if old is not None:
                c = old + c
            if c:
                out[t] = c
            elif old is not None:
                del out[t]
        return FractionAmp(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        if not c:
            return FractionAmp({})
        return FractionAmp({t: k * c for t, k in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = (t1 + t2) % 1
                out[t] = out.get(t, Fraction(0)) + c1 * c2
        return FractionAmp({t: c for t, c in out.items() if c})

    def conj(self):
        return FractionAmp({(-t) % 1: c for t, c in self.terms.items()})

    def is_zero(self):
        if len(self.terms) <= 1:
            return not any(self.terms.values())
        q = math.lcm(*(t.denominator for t in self.terms))
        coeffs = {}
        for t, c in self.terms.items():
            e = t.numerator * (q // t.denominator)
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
        return exponent_sum_is_zero(coeffs, q)

    def equals(self, other):
        return self.terms == other.terms or (self - other).is_zero()

    def polar(self):
        """(|c|, phase) of a one-term value c * w^t, a negative c read as a
        half turn more; None for any other term map."""
        if len(self.terms) == 1:
            (t, c), = self.terms.items()
            return abs(c), Phase(t + (c < 0) * Fraction(1, 2))
        return None


DENOMINATORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 60]
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def term_maps(draw):
    """Up to four turns over small conductors, zero coefficients included."""
    q = draw(st.sampled_from(DENOMINATORS))
    turns = st.integers(0, q - 1).map(lambda m: Fraction(m, q))
    return draw(st.dictionaries(turns, COEFFS, max_size=4))


# 1 + w_3 + w_3^2 vanishes, so adding it changes the form but not the value
CUBE_ROOT_SUM = {Fraction(j, 3): Fraction(1) for j in range(3)}


@settings(max_examples=150, deadline=None)
@given(st.lists(term_maps(), min_size=3, max_size=3), COEFFS)
@example([{Fraction(1, 4): Fraction(1)}, {Fraction(3, 4): Fraction(-1)}, {}], Fraction(1, 2))
@example([{Fraction(0): Fraction(2), Fraction(1, 3): Fraction(1)},
          {Fraction(2, 3): Fraction(-1)}, CUBE_ROOT_SUM], Fraction(0))
@example([{Fraction(1, 3): Fraction(0)}, {Fraction(1, 2): Fraction(1, 2)},
          {Fraction(1, 2): Fraction(2)}], Fraction(-1))
def test_arithmetic_matches_fraction_reference(maps, k):
    # the reference never stored a zero coefficient that arithmetic made, so
    # it starts from the maps without them; Amp converts them as drawn
    (a, b, c) = [Amp(terms=m) for m in maps]
    ra, rb, rc = [FractionAmp({t: x for t, x in m.items() if x}) for m in maps]
    v, rv = Amp(terms=CUBE_ROOT_SUM), FractionAmp(dict(CUBE_ROOT_SUM))
    pairs = [(a, ra), (a + b, ra + rb), (a * b, ra * rb), (a.conj(), ra.conj()),
             (a.scaled(k), ra.scaled(k)), (a - b, ra - rb), ((a + b) * c, (ra + rb) * rc),
             (a * b + c.conj(), ra * rb + rc.conj()), ((a - b).scaled(k) * c, (ra - rb).scaled(k) * rc),
             (a + v, ra + rv), ((a + v) * b, (ra + rv) * rb)]
    for got, want in pairs:
        assert FractionAmp.of(got).terms == want.canonical()
        assert got.is_zero() == want.is_zero()
        # a one-term value splits as the reference does; any split is value-equal
        split = got.polar()
        if want.polar() is not None:
            assert split == want.polar()
        if split is not None:
            assert want.equals(FractionAmp({split[1].turn: split[0]}))
        assert complex(got) == pytest.approx(sum(
            float(x) * cmath.exp(2j * math.pi * float(t)) for t, x in want.terms.items()),
            abs=1e-9)
    for (x, rx), (y, ry) in [(pairs[0], pairs[9]), (pairs[1], pairs[0]), (pairs[2], pairs[10]),
                             (pairs[5], pairs[1]), (pairs[3], pairs[3])]:
        assert x.equals(y) == rx.equals(ry)
        assert y.equals(x) == ry.equals(rx)


def reference_apply(op, state):
    """op's dense layers applied site by site in the reference arithmetic:
    the term map and the squared norm the raw amplitudes are meant to have."""
    sp = state.to_sparse()
    terms = {idx: FractionAmp.of(a) for idx, a in sp.terms.items()}
    scale2 = sp.scale2
    for pos, site in enumerate(op.sites):
        out = {}
        for idx, amp in terms.items():
            for j in range(site.d):
                m = FractionAmp.of(site.matrix[j][idx[pos]])
                if m.is_zero():
                    continue
                key = idx[:pos] + (j,) + idx[pos + 1:]
                out[key] = m * amp if key not in out else out[key] + m * amp
        terms = {key: a for key, a in out.items() if not a.is_zero()}
        scale2 *= site.scale
    return {key: a.canonical() for key, a in terms.items()}, scale2


# F3 on AME(4,3), F2 x F2 on AME(4,4), and F5 on the AME(6,5) of RS[6,3]
# over GF(5) extended by the point at infinity
DENSE_CASES = {
    "f3-ame43": (fourier(3), construct_ame43),
    "f2f2-ame44": (tensor_butson(fourier(2), fourier(2)), construct_ame44),
    "f5-rs63": (fourier(5), lambda: construct_linear(
        5, [[1, a, a * a % 5] for a in range(5)] + [[0, 0, 1]])),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_apply_matches_fraction_reference(case):
    b, make = DENSE_CASES[case]
    state = make()
    op = LocalOperator([SiteOperator.butson(b)] * state.n)
    image = op.apply(state)
    want, scale2 = reference_apply(op, state)
    assert image.scale2 == scale2
    assert {key: FractionAmp.of(a).terms for key, a in image.terms.items()} == want


# the permutation parts of the 48 monomial automorphisms of AME(4,4), four
# symbols per site, in the order automorphisms returns them
AME44_SIGMAS = """
0123012301230123 0123103210322301 0123230123013210 0123321032101032 0231023102310231
0231132013202013 0231201320133102 0231310231021320 0312031203120312 0312120312032130
0312213021303021 0312302130211203 1032012310321032 1032103201233210 1032230132102301
1032321023010123 1203031212031203 1203120303123021 1203213030212130 1203302121300312
1320023113201320 1320132002313102 1320201331022013 1320310220130231 2013023120132013
2013132031020231 2013201302311320 2013310213203102 2130031221302130 2130120330210312
2130213003121203 2130302112033021 2301012323012301 2301103232100123 2301230101231032
2301321010323210 3021031230213021 3021120321301203 3021213012030312 3021302103122130
3102023131023102 3102132020131320 3102201313200231 3102310202312013 3210012332103210
3210103223011032 3210230110320123 3210321001232301""".split()

# the sign pattern (each entry is +1 or -1) of the four sites of the one
# Butson-layer automorphism, rows separated by spaces
AME44_BUTSON_SITES = ["++++ +-+- ++-- +--+", "++++ ++-- +--+ +-+-",
                      "++++ +--+ +-+- ++--", "++++ ++-- +--+ +-+-"]


def test_ame44_butson_automorphisms_are_pinned():
    found = automorphisms(construct_ame44(), "lm+butson")
    assert len(found) == 49
    assert all(w.global_phase == Phase(Fraction(0)) for w in found)
    monomial, (layer,) = found[:48], found[48:]
    assert ["".join("".join(map(str, site.sigma)) for site in w.sites)
            for w in monomial] == AME44_SIGMAS
    assert all(p == Phase(Fraction(0)) for w in monomial for site in w.sites for p in site.diag)
    signs = {(1, Phase(Fraction(0))): "+", (1, Phase(Fraction(1, 2))): "-"}
    assert [" ".join("".join(signs[a.polar()] for a in row) for row in site.matrix)
            for site in layer.sites] == AME44_BUTSON_SITES
    assert all(site.kind == "general" and site.scale == 4 for site in layer.sites)


TURNS = st.fractions(min_value=-3, max_value=3, max_denominator=360)


def reduced(t):
    """The reference reading of an exact turn: t mod 1 as a Fraction."""
    return Fraction(t) % 1


@settings(max_examples=300, deadline=None)
@given(TURNS, TURNS, st.integers(-12, 12))
@example(Fraction(1, 3), Fraction(-2, 3), -1)
@example(Fraction(0), Fraction(5, 2), 0)
@example(Fraction(7, 360), Fraction(-7, 360), -12)
def test_integer_phase_matches_fraction_reference(t1, t2, n):
    a, b = Phase(t1), Phase(t2)
    for got, want in [(a, t1), (b, t2), (a * b, t1 + t2), (a / b, t1 - t2),
                      (a ** n, t1 * n), (b ** -n, -t2 * n), (a.conj(), -t1)]:
        want = reduced(want)
        assert got.is_exact and got.turn == want
        assert (got.num, got.den) == (want.numerator, want.denominator)
        assert got == Phase(want) and hash(got) == hash(Phase(want)) == hash(want)
        assert repr(got) == "Phase(%s)" % want
    assert (a == b) == (reduced(t1) == reduced(t2))
    assert (a != b) == (reduced(t1) != reduced(t2))
    assert a.close_to(b) == (a == b)


@given(st.integers(0, 2 ** 30), st.integers(0, 30))
@example(1, 1)
def test_exact_and_real_phases_of_one_dyadic_turn_are_equal(m, k):
    # m / 2^k is a float exactly, so the exact and the real phase are one
    # value: equal both ways, with equal hashes
    t = Fraction(m, 2 ** k)
    exact, real = Phase(t), Phase(float(t))
    assert exact.is_exact and not real.is_exact
    assert exact == real and real == exact and hash(exact) == hash(real)
    assert len({exact, real}) == 1


def test_exact_and_real_phases_of_other_turns_differ():
    assert Phase(Fraction(1, 2)) == Phase(0.5)
    assert hash(Phase(Fraction(1, 2))) == hash(Phase(0.5))
    assert Phase(Fraction(1, 3)) != Phase(1 / 3)
    assert Phase(Fraction(1, 3)).close_to(Phase(1 / 3))
    assert Phase(Fraction(1, 4)) != Fraction(1, 4)


@settings(max_examples=100, deadline=None)
@given(TURNS | st.floats(min_value=-3, max_value=3) | st.integers(-3, 3))
@example(-3e-109)  # t % 1.0 rounds to 1.0, which is turn 0
def test_phase_round_trips(t):
    p = Phase(t)
    copies = [Phase.from_json(json.loads(json.dumps(p.to_json()))),
              copy.copy(p), copy.deepcopy(p), copy.deepcopy([p, p])[1]]
    copies += [pickle.loads(pickle.dumps(p, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert type(q) is Phase and q == p and hash(q) == hash(p)
        assert q.is_exact == p.is_exact and q.turn == p.turn and repr(q) == repr(p)


@pytest.mark.parametrize("p", [Phase(Fraction(1, 3)), Phase(0.25), Phase(2)],
                         ids=["exact", "real", "int"])
def test_phase_attributes_cannot_be_assigned(p):
    before = p.to_json()
    for name, value in [("num", 2), ("den", 5), ("turn", Fraction(1, 2)), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.to_json() == before
