import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ameslocc import phases
from ameslocc.phases import (ONE, Amp, Phase, PhaseError, _cyclotomic_coeffs,
                             _reduce_mod_cyclotomic, exponent_sum_is_zero,
                             get_tolerance, nth_roots, phase_product,
                             root_of_unity, set_tolerance, vanishes)


def rational_turns():
    return st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1)


def test_root_of_unity_basics():
    assert root_of_unity(4, 1).turn == Fraction(1, 4)
    assert root_of_unity(4, 5).turn == Fraction(1, 4)  # wraps mod 1
    assert root_of_unity(6, 4).turn == Fraction(2, 3)  # reduces
    assert root_of_unity(3, 0) == ONE


def test_minus_one():
    assert root_of_unity(2, 1).turn == Fraction(1, 2)
    assert complex(root_of_unity(2, 1)) == pytest.approx(-1 + 0j)


def test_mul_div_conj():
    a = Phase(Fraction(1, 3))
    b = Phase(Fraction(1, 2))
    assert (a * b).turn == Fraction(5, 6)
    assert (a / b).turn == Fraction(5, 6)  # 1/3 - 1/2 mod 1
    assert a.conj().turn == Fraction(2, 3)
    assert (a * a.conj()) == ONE


def test_pow():
    w = root_of_unity(5, 1)
    assert (w ** 5) == ONE
    assert (w ** -1) == w.conj()


def test_nth_roots_ascending():
    roots = nth_roots(ONE, 6)
    assert len(roots) == 6
    turns = [r.turn for r in roots]
    assert turns == sorted(turns)
    assert roots[0] == ONE
    # roots of a non-trivial phase actually power back up to it
    x = Phase(Fraction(2, 5))
    assert all((r ** 3) == x for r in nth_roots(x, 3))


def test_real_turn_phase():
    p = Phase(0.125)
    assert not p.is_exact
    assert complex(p) == pytest.approx(complex(Phase(Fraction(1, 8))))
    assert p.close_to(Phase(Fraction(1, 8)))


def test_close_to_circular():
    # turns just below 1 and just above 0 are close on the circle
    assert Phase(1.0 - 1e-12).close_to(Phase(0.0))


def test_tolerance_roundtrip():
    old = get_tolerance()
    try:
        set_tolerance(1e-3)
        assert Phase(0.0005).close_to(Phase(0.0))
    finally:
        set_tolerance(old)
    assert not Phase(0.0005).close_to(Phase(0.0))


def test_json_roundtrip():
    for p in (Phase(Fraction(3, 7)), Phase(0.33)):
        q = Phase.from_json(p.to_json())
        assert q.close_to(p)
        assert q.is_exact == p.is_exact


@given(rational_turns(), rational_turns())
def test_product_matches_complex(t1, t2):
    a, b = Phase(t1), Phase(t2)
    assert complex(a * b) == pytest.approx(complex(a) * complex(b), abs=1e-9)


@given(st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3))
def test_exact_products_and_quotients_are_turn_sums_mod_1(t1, t2):
    a, b = Phase(t1), Phase(t2)
    assert a.turn == t1 % 1 and b.turn == t2 % 1
    assert (a * b).turn == (t1 + t2) % 1
    assert (a / b).turn == (t1 - t2) % 1


@given(rational_turns())
def test_conj_inverse(t):
    p = Phase(t)
    assert (p * p.conj()) == ONE


def test_phase_product():
    ps = [root_of_unity(8, i) for i in (1, 2, 5)]
    assert phase_product(ps).turn == Fraction(0)


# --- exact amplitude arithmetic -------------------------------------------

def test_vanishing_root_sum():
    acc = Amp.zero()
    for j in range(3):
        acc = acc + Amp.from_phase(root_of_unity(3, j))
    assert acc.is_zero()


def test_nonobvious_cyclotomic_identity():
    # 2 + w + conj(w) = 1 for w a primitive cube root
    w = root_of_unity(3, 1)
    a = Amp(terms={Fraction(0): Fraction(2)}) + Amp.from_phase(w) \
        + Amp.from_phase(w.conj())
    assert a.equals(Amp.one())


def test_amp_scaling_and_sub():
    a = Amp.from_phase(root_of_unity(5, 2))
    assert (a - a).is_zero()
    assert (a.scaled(Fraction(3)) - a.scaled(Fraction(3))).is_zero()
    assert not (a.scaled(Fraction(2)) - a).is_zero()


def test_amp_complex_value():
    a = Amp.from_phase(root_of_unity(8, 1)) * Amp.from_phase(root_of_unity(8, 1))
    assert complex(a) == pytest.approx(1j)


def test_amp_from_complex_float_mode():
    a = Amp.from_complex(0.5 + 0.5j)
    assert not a.is_exact
    assert complex(a) == pytest.approx(0.5 + 0.5j)


def test_polar_splits_unit_roots():
    a = Amp.from_phase(root_of_unity(7, 3))
    assert a.polar() == (1, Phase(Fraction(3, 7)))
    assert (a + a).polar() == (2, Phase(Fraction(3, 7)))
    assert a.scaled(-1).polar() == (1, Phase(Fraction(3, 7) + Fraction(1, 2)))
    # 1 + w_3 + w_3^2 vanishes, so this sum collapses to w_3
    cube = Amp(terms={Fraction(0): 1, Fraction(1, 3): 2, Fraction(2, 3): 1})
    assert cube.polar() == (1, Phase(Fraction(1, 3)))
    assert (a + a.scaled(-1)).polar() is None


@pytest.mark.parametrize("turn", [math.nan, math.inf, -math.inf])
def test_nonfinite_float_turns_are_refused(turn):
    with pytest.raises(PhaseError):
        Phase(turn)
    with pytest.raises(PhaseError):
        Phase.from_json({"turn_real": turn})


@pytest.mark.parametrize("obj", [{"re": math.nan, "im": 0.0}, {"re": 1.0, "im": math.inf},
                                 {"re": -math.inf, "im": math.nan}])
def test_nonfinite_float_amplitudes_are_refused(obj):
    with pytest.raises(PhaseError):
        Amp.from_json(obj)


def test_amp_from_json_adds_repeated_exponents_mod_q():
    # exponents 1 and 5 are one exponent mod 4 and their counts cancel;
    # 0 and 8 add up; -1 and 2 are one exponent mod 3 and cancel to zero
    amp = Amp.from_json({"q": 4, "counts": [[1, 3], [5, -3], [0, 1], [8, 1]], "den": 2})
    assert amp.counts == {0: 2} and amp.equals(Amp.one())
    assert amp.to_json() == {"q": 1, "counts": [[0, 1]], "den": 1}
    zero = Amp.from_json({"q": 3, "counts": [[2, 1], [-1, -1]], "den": 1})
    assert zero.counts == {} and zero.is_zero()


def test_amp_terms_add_into_one_form():
    a = Amp(terms={Fraction(1, 4): Fraction(1, 2), Fraction(5, 4): Fraction(1, 3),
                   Fraction(1, 2): 0, Fraction(3, 4): Fraction(-1, 6)})
    assert (a.q, a.counts, a.den) == (4, {1: 5, 3: -1}, 6)
    # a real turn makes the value a complex double
    b = Amp(terms={0.25: 2, Fraction(1, 2): Fraction(1, 2)})
    assert not b.is_exact and complex(b) == pytest.approx(2j - 0.5)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_set_tolerance_refuses_nonpositive_and_nonfinite(tol):
    old = get_tolerance()
    with pytest.raises(PhaseError):
        set_tolerance(tol)
    assert get_tolerance() == old


@given(st.integers(min_value=2, max_value=12))
@example(105)
@example(2520)
def test_full_root_sum_vanishes(q):
    acc = Amp.zero()
    for j in range(q):
        acc = acc + Amp.from_phase(root_of_unity(q, j))
    assert acc.is_zero()


# --- cyclotomic polynomials -------------------------------------------------

PINNED_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    105: (1, 1, 1, 0, 0, -1, -1, -2, -1, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0,
          -1, 0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, -1,
          -1, -2, -1, -1, 0, 0, 1, 1, 1),
}


@pytest.mark.parametrize("q", sorted(PINNED_CYCLOTOMIC))
def test_cyclotomic_pinned(q):
    assert _cyclotomic_coeffs(q) == PINNED_CYCLOTOMIC[q]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("q", list(range(1, 61)) + [105, 385, 2520])
def test_cyclotomic_degree_and_divisor_product(q):
    phi = _cyclotomic_coeffs(q)
    assert len(phi) - 1 == sum(1 for m in range(1, q + 1) if math.gcd(m, q) == 1)
    prod = [1]
    for e in range(1, q + 1):
        if q % e == 0:
            prod = _poly_mul(prod, _cyclotomic_coeffs(e))
    assert prod == [-1] + [0] * (q - 1) + [1]


def test_exponent_sum_is_zero():
    # w^0 + w^3 + w^6 vanishes for w a primitive 9th root, without the
    # counts being uniform; integer and Fraction coefficients agree
    assert exponent_sum_is_zero({0: 1, 3: 1, 6: 1}, 9)
    assert exponent_sum_is_zero({0: Fraction(1, 2), 3: Fraction(1, 2), 6: Fraction(1, 2)}, 9)
    assert not exponent_sum_is_zero({0: 1, 3: 1}, 9)
    assert exponent_sum_is_zero(dict(enumerate([2] * 7)), 7)
    assert not exponent_sum_is_zero(dict(enumerate([2] * 6 + [1])), 7)
    assert exponent_sum_is_zero({}, 5)


def test_large_conductor_nonzero_sum_skips_the_reduction(monkeypatch):
    # turns 1/59, 1/58, 1/57, 1/53 have conductor ~10^7, where the exact
    # reduction takes about a minute; a clearly nonzero sum never reaches it
    def reduce_mod_cyclotomic(coeffs, q):
        raise AssertionError("cyclotomic reduction reached at q = %d" % q)

    monkeypatch.setattr(phases, "_reduce_mod_cyclotomic", reduce_mod_cyclotomic)
    amp = Amp(terms={Fraction(1, p): Fraction(1) for p in (59, 58, 57, 53)})
    assert amp.is_zero() is False
    assert not amp.equals(Amp.zero())


@st.composite
def vanishing_sums(draw):
    """(coeffs, q): a sum of full cycles of d-th roots of unity, d | q, each
    rotated by a q-th root and scaled by a nonzero rational."""
    q = draw(st.integers(2, 420))
    divisors = [d for d in range(2, q + 1) if q % d == 0]
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(divisors))
        shift = draw(st.integers(0, q - 1))
        scale = draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
        for j in range(d):
            e = (shift + j * (q // d)) % q
            coeffs[e] = coeffs.get(e, 0) + scale
    return coeffs, q


@given(vanishing_sums())
@example(({0: 1, 3: 1, 6: 1}, 9))
def test_vanishing_sums_stay_zero(case):
    coeffs, q = case
    assert exponent_sum_is_zero(coeffs, q)
    assert Amp(terms={Fraction(e, q): c for e, c in coeffs.items() if c}).is_zero()


@st.composite
def count_vectors(draw):
    """(vec, q): distinct exponents in [0, q) with nonzero integer counts."""
    q = draw(st.integers(1, 36))
    counts = draw(st.dictionaries(st.integers(0, q - 1), st.integers(-3, 3).filter(bool),
                                  max_size=5))
    return tuple(sorted(counts.items())), q


@given(count_vectors())
@example((((0, 1), (12, 1), (24, 1)), 36))  # 1 + w_3 + w_3^2 over conductor 36
@example((((0, 2), (9, 1)), 36))
def test_from_counts_matches_amp_sum(case):
    vec, q = case
    want = Amp.zero()
    for e, c in vec:
        want = want + Amp.from_phase(Phase(Fraction(e, q)), c)
    got = Amp.from_counts(q, dict(vec), 3)
    assert got.is_zero() == want.is_zero()
    assert got.equals(want.scaled(Fraction(1, 3)))


@given(count_vectors(), st.integers(2, 6))
@example((((0, 1), (1, 1), (2, 1)), 3), 4)  # 1 + w_3 + w_3^2 written over w_12
@example((((0, 2), (3, 1)), 6), 5)
def test_vanishes_agrees_over_a_multiple_of_the_conductor(case, m):
    # vec over w_q is the lifted vector over w_(qm), q m a proper multiple
    # of its own conductor; vanishes decides it over that conductor
    vec, q = case
    lifted = tuple((e * m, c) for e, c in vec)
    want = exponent_sum_is_zero(dict(lifted), q * m)
    assert vanishes(lifted, q * m) == want == exponent_sum_is_zero(dict(vec), q)

@st.composite
def few_terms(draw):
    """Term maps (turn -> coefficient) of one or two terms, zero
    coefficients included."""
    turns = draw(st.lists(st.fractions(0, 1, max_denominator=60).filter(lambda t: t < 1),
                          min_size=1, max_size=2))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    return {t: draw(coeffs) for t in turns}


@given(few_terms())
@example({Fraction(1, 3): Fraction(0)})
@example({Fraction(0): Fraction(0)})
@example({Fraction(0): Fraction(1), Fraction(1, 2): Fraction(1)})
@example({Fraction(47, 57): Fraction(-1), Fraction(33, 59): Fraction(5, 3)})  # q = 3363
def test_is_zero_matches_cyclotomic_reduction(terms):
    q = math.lcm(*(t.denominator for t in terms))
    # the reference reduces integer coefficients: scaling by their common
    # denominator does not change whether the sum vanishes, and a long
    # division over Fractions at a large q is slow
    scale = math.lcm(*(c.denominator for c in terms.values()))
    coeffs = {}
    for t, c in terms.items():
        coeffs[int(t * q)] = coeffs.get(int(t * q), 0) + int(c * scale)
    assert Amp(terms=terms).is_zero() == all(c == 0 for c in _reduce_mod_cyclotomic(coeffs, q))


ONE_PLUS_W3 = Amp(terms={Fraction(0): Fraction(1), Fraction(1, 3): Fraction(1)})
MINUS_W3_SQUARED = Amp(terms={Fraction(2, 3): Fraction(-1)})
FULL_ROOT_SUM_12 = Amp(terms={Fraction(j, 12): Fraction(1) for j in range(12)})


@st.composite
def amp_pairs(draw):
    """Two exact Amps over one small conductor; half the time the second is
    built from the first's term map."""
    q = draw(st.integers(1, 12))
    turns = st.integers(0, q - 1).map(lambda m: Fraction(m, q))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    term_maps = st.dictionaries(turns, coeffs, max_size=4)
    a = draw(term_maps)
    return Amp(terms=a), Amp(terms=a if draw(st.booleans()) else draw(term_maps))


@given(amp_pairs())
@example((ONE_PLUS_W3, MINUS_W3_SQUARED))
@example((FULL_ROOT_SUM_12, Amp.zero()))
def test_equals_matches_difference_is_zero(pair):
    # identical term maps may answer at once; different representations of
    # one value must still reach the cyclotomic test
    a, b = pair
    assert a.equals(b) == (a - b).is_zero()
    assert b.equals(a) == a.equals(b)
