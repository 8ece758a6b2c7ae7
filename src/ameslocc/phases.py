"""Exact arithmetic over unit-modulus complex scalars.

A phase is stored as a "turn" t with value exp(2*pi*i*t).  Rational turns
(roots of unity) are kept as a reduced int pair, numerator over denominator,
and all arithmetic on them runs in ints; ``Phase.turn`` builds the Fraction
only when asked for.  Arbitrary unimodular scalars fall back to a real turn
in [0, 1) with tolerance-based comparison.

An exact amplitude (``Amp``) is one integer form (q, counts, den): the sum
of c * w_q^e / den over its counts, exponent e -> nonzero int c, with w_q
the primitive q-th root of unity.  Its arithmetic runs in ints, and its
zero test is the cyclotomic reduction of that count vector.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

#: Global tolerance for float-mode comparisons (CLI-overridable).
DEFAULT_TOL = 1e-10

_tol = DEFAULT_TOL


class PhaseError(ValueError):
    pass


def set_tolerance(tol):
    """Set the global float-comparison tolerance; PhaseError unless 0 < tol < inf."""
    global _tol
    if not 0 < tol < math.inf:
        raise PhaseError("tolerance must be positive and finite, got %r" % (tol,))
    _tol = tol


def get_tolerance():
    return _tol


class Phase:
    """A unit-modulus complex number exp(2*pi*i*turn), immutable.

    An exact phase (a root of unity) holds its turn as a reduced int pair
    ``num`` / ``den``, 0 <= num < den; a real one holds a float turn ``num``
    in [0, 1) and ``den`` None.  ``Phase(turn)`` takes a Fraction, an int
    or a float; ``turn`` gives the float, or builds the Fraction.  Products
    and quotients of exact phases stay exact.  Equal values hash equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, turn):
        if isinstance(turn, Fraction):
            num, den = turn.numerator % turn.denominator, turn.denominator
        elif isinstance(turn, int):
            num, den = 0, 1
        else:
            num, den = float(turn), None
            if not math.isfinite(num):
                raise PhaseError("phase turn must be finite, got %r" % num)
            num %= 1.0
            if num == 1.0:  # a tiny negative turn rounds up to 1
                num = 0.0
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, *value):
        raise AttributeError("Phase is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Phase, (self.turn,)

    @property
    def turn(self):
        return self.num if self.den is None else Fraction(self.num, self.den)

    @property
    def is_exact(self):
        return self.den is not None

    def _real_turn(self) -> float:
        return self.num if self.den is None else self.num / self.den

    def __eq__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        if self.den is None or other.den is None:
            return self.turn == other.turn
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.turn)

    def __mul__(self, other: "Phase") -> "Phase":
        return _turn_sum(self, other, 1)

    def __truediv__(self, other: "Phase") -> "Phase":
        return _turn_sum(self, other, -1)

    def __pow__(self, n: int) -> "Phase":
        return Phase(self.num * n) if self.den is None else _exact(self.num * n, self.den)

    def conj(self) -> "Phase":
        return self ** -1

    def __complex__(self):
        return cmath.exp(2j * math.pi * self._real_turn())

    def close_to(self, other: "Phase") -> bool:
        """Equality, exact for rational turns, tolerance-based otherwise."""
        if self.den is not None and other.den is not None:
            return self.num == other.num and self.den == other.den
        diff = (self._real_turn() - other._real_turn()) % 1.0
        return min(diff, 1.0 - diff) <= _tol

    def to_json(self):
        if self.den is not None:
            return {"turn": {"num": self.num, "den": self.den}}
        return {"turn_real": self.num}

    @staticmethod
    def from_json(obj) -> "Phase":
        if "turn" in obj:
            num, den = obj["turn"]["num"], obj["turn"]["den"]
            if not (type(num) is int and type(den) is int and den > 0):
                raise PhaseError("not an exact turn encoding: %r" % (obj,))
            return _exact(num, den)
        if "turn_real" in obj:
            return Phase(float(obj["turn_real"]))
        raise PhaseError("not a phase encoding: %r" % (obj,))

    def __repr__(self):
        if self.den is not None:
            return f"Phase({self.turn})"
        return f"Phase({self.num:.12g})"


_set_num, _set_den = Phase.num.__set__, Phase.den.__set__


def _exact(num: int, den: int) -> Phase:
    """The exact phase of turn num / den, for any ints with den > 0."""
    num %= den
    g = math.gcd(num, den)
    p = object.__new__(Phase)
    _set_num(p, num // g)
    _set_den(p, den // g)
    return p


def _turn_sum(a: Phase, b: Phase, sign: int) -> Phase:
    """The phase of turn a + sign * b; exact ones add their numerators over
    the lcm of the denominators."""
    p, q = a.den, b.den
    if p is None or q is None:
        return Phase(a._real_turn() + sign * b._real_turn())
    m = p if p == q else math.lcm(p, q)
    return _exact(a.num * (m // p) + sign * b.num * (m // q), m)


def turn_numerators(phases: Iterable[Phase]):
    """(q, values): the turns of ``phases``, in order, as integer numerators
    over q, the lcm of their denominators; or, when any turn is real,
    q = 1.0 and the float turns.

    Either way each turn is value / q, so a product of phases is a sum of
    values mod q, read back with ``numerator_phase``.
    """
    phases = list(phases)
    dens = {p.den for p in phases}
    if None in dens:
        return 1.0, [p._real_turn() for p in phases]
    q = math.lcm(*dens)
    return q, [p.num * (q // p.den) for p in phases]


def numerator_phase(value, q) -> Phase:
    """The phase of turn value / q, for a q and value as ``turn_numerators``
    gives them (value any integer when q is)."""
    if isinstance(q, int):
        return _exact(value, q)
    return Phase(value % q)


def turn_difference(q, pairs):
    """The one difference (x - y) mod q over pairs of integer numerators
    over q, or None when they give several differences, or none."""
    diffs = {(x - y) % q for x, y in pairs}
    return diffs.pop() if len(diffs) == 1 else None


ONE = _exact(0, 1)


def root_of_unity(q: int, p: int = 1) -> Phase:
    """exp(2*pi*i*p/q) as a reduced rational turn."""
    if q < 1:
        raise PhaseError("root order must be a positive integer, got %r" % q)
    return _exact(p, q)


def phase_product(factors: Iterable[Phase]) -> Phase:
    """Product of phases; exact whenever every factor has a rational turn."""
    out = ONE
    for f in factors:
        out = out * f
    return out


def nth_roots(x: Phase, d: int) -> list:
    """All d phases y with y**d == x, in ascending-turn order."""
    if d < 1:
        raise PhaseError("root order must be a positive integer, got %r" % d)
    if x.is_exact:  # (num + m * den) / (den * d) ascends with m
        return [_exact(x.num + m * x.den, x.den * d) for m in range(d)]
    base = x.num / d
    return sorted((Phase(base + m / d) for m in range(d)), key=lambda r: r.num)


def _mobius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(q: int):
    """Integer coefficient list (low to high) of the q-th cyclotomic polynomial.

    Phi_q is the product over e | q of (x^e - 1)^mu(q/e): the mu = +1 binomials
    are multiplied in first, then the mu = -1 ones are divided out exactly.
    """
    divisors = [e for e in range(1, q + 1) if q % e == 0]
    poly = [1]
    for e in divisors:
        if _mobius(q // e) == 1:
            out = [0] * e + poly
            for i, c in enumerate(poly):
                out[i] -= c
            poly = out
    for e in divisors:
        if _mobius(q // e) == -1:
            # p = f * (x^e - 1) gives p[i] = f[i-e] - f[i]
            f = [0] * (len(poly) - e)
            for i in range(len(f)):
                f[i] = (f[i - e] if i >= e else 0) - poly[i]
            poly = f
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs, q):
    """Remainder of sum(coeffs[k] * x^k) modulo the q-th cyclotomic polynomial.

    ``coeffs`` maps exponent -> integer (or Fraction) coefficient.  Returns
    a dense list of coefficients of length deg(Phi_q); the represented sum of
    roots of unity is zero iff every entry is zero.  The division by the
    monic integer Phi_q runs in the coefficients' own type.
    """
    phi = _cyclotomic_coeffs(q)
    deg = len(phi) - 1
    low = [(i, c) for i, c in enumerate(phi[:deg]) if c]
    work = [0] * q
    for e, c in coeffs.items():
        work[e % q] += c
    # long division over the nonzero lower coefficients of Phi_q
    for e in range(q - 1, deg - 1, -1):
        c = work[e]
        if c:
            work[e] = 0
            for i, p in low:
                work[e - deg + i] -= c * p
    return work[:deg]


def exponent_sum_is_zero(coeffs, q) -> bool:
    """Does sum(c * w^e) over coeffs (exponent -> integer or Fraction c)
    vanish, w the primitive q-th root of unity?

    A clearly nonzero sum is answered in floating point.  With S the sum of
    |c| over the n entries, z = sum((c / S) * w^e) is computed from correctly
    rounded weights c / S and angles 2*pi*e/q, so each term is off by less
    than 4e-15 times its weight, and the n additions of partial sums of
    modulus at most 1 add less than n * 2^-52; the computed |z| is within
    5e-15 + n * 2.3e-16 of the true one.  A computed |z| above
    1e-9 + n * 1e-15 therefore proves the sum nonzero.  Every other sum is
    decided exactly, by reduction modulo the q-th cyclotomic polynomial,
    whose time and memory grow linearly with q, so a q above 2^20 raises
    PhaseError instead.
    """
    total = sum(abs(c) for c in coeffs.values())
    if not total:
        return True
    z = sum(cmath.rect(float(c / total), 2 * math.pi * (e % q) / q)
            for e, c in coeffs.items())
    if abs(z) > 1e-9 + len(coeffs) * 1e-15:
        return False
    if q > 2 ** 20:
        raise PhaseError("no exact zero test for conductor %d > 2^20" % q)
    return not any(_reduce_mod_cyclotomic(coeffs, q))


def count_vector(counts):
    """counts, a map of exponent -> integer count, as a sorted tuple of its
    (exponent, nonzero count) pairs: the key ``vanishes`` reads."""
    return tuple(sorted((e, c) for e, c in counts.items() if c))


@lru_cache(maxsize=4096)
def vanishes(vec, q) -> bool:
    """Does the count vector vec (``count_vector``) over w_q sum to zero?
    The one memoised zero test: ``exponent_sum_is_zero`` over the vector's
    own conductor, once per vector; one exponent needs no test."""
    if len(vec) <= 1:
        return not vec
    g = math.gcd(q, *(e for e, _ in vec))
    return exponent_sum_is_zero({e // g: c for e, c in vec}, q // g)


class Amp:
    """A complex amplitude, exact (rational combination of roots of unity) or float.

    Exact mode holds the integer form (q, counts, den) of the module
    docstring.  Sums and products lift both sides to the lcm of their q and
    of their den; ``form`` reduces to the own conductor and lowest
    denominator only when a reader needs it.  Any real-turn contribution
    switches the value to a complex double.  ``Amp(terms={turn: coeff})``
    converts Fraction turns and coefficients once and adds their counts in
    one dict.
    """

    __slots__ = ("q", "counts", "den", "value")

    def __init__(self, terms=None, value=None):
        self.q = self.counts = self.den = None  # the exact form, or None in float mode
        self.value = value  # complex, or None in exact mode
        if terms is not None:
            q, turns = turn_numerators(map(Phase, terms))
            coeffs = [(t, Fraction(c)) for t, c in zip(turns, terms.values())]
            if not isinstance(q, int):
                self.value = sum((cmath.exp(2j * math.pi * t) * float(c) for t, c in coeffs), 0j)
                return
            self.q, den = q, math.lcm(*(c.denominator for _, c in coeffs))
            self.den, self.counts = den, _add_counts(
                (t, c.numerator * (den // c.denominator)) for t, c in coeffs)

    @staticmethod
    def from_counts(q: int, counts: dict, den: int = 1) -> "Amp":
        """sum(c * w_q^e) / den over ``counts``, a dict of exponents in
        [0, q) to nonzero ints, which the Amp keeps without a copy."""
        amp = Amp()
        amp.q, amp.counts, amp.den = q, counts, den
        return amp

    @staticmethod
    def zero() -> "Amp":
        return Amp.from_counts(1, {})

    @staticmethod
    def one() -> "Amp":
        return Amp.from_counts(1, {0: 1})

    @staticmethod
    def from_phase(p: Phase, coeff=1) -> "Amp":
        if p.den is not None:
            c = coeff if isinstance(coeff, int) else Fraction(coeff)
            return Amp.from_counts(p.den, {p.num: c.numerator} if c else {}, c.denominator)
        return Amp(value=complex(p) * float(coeff))

    @staticmethod
    def from_complex(z) -> "Amp":
        return Amp(value=complex(z))

    @property
    def is_exact(self):
        return self.counts is not None

    def form(self):
        """(q, counts, den) at this amplitude's own conductor and lowest
        denominator; the amplitude keeps that form from then on."""
        g, h = math.gcd(self.q, *self.counts), math.gcd(self.den, *self.counts.values())
        if g > 1 or h > 1:
            self.q, self.den = self.q // g, self.den // h
            self.counts = {e // g: c // h for e, c in self.counts.items()}
        return self.q, self.counts, self.den

    def __add__(self, other: "Amp") -> "Amp":
        if self.is_exact and other.is_exact:
            q, den = math.lcm(self.q, other.q), math.lcm(self.den, other.den)
            s, m = q // self.q, den // self.den
            out = (dict(self.counts) if s == m == 1 else
                   {e * s: c * m for e, c in self.counts.items()})
            s, m = q // other.q, den // other.den
            for e, c in other.counts.items():
                e *= s
                c = out.get(e, 0) + c * m
                if c:
                    out[e] = c
                else:
                    del out[e]
            return Amp.from_counts(q, out, den)
        return Amp(value=complex(self) + complex(other))

    def __sub__(self, other: "Amp") -> "Amp":
        return self + other.scaled(-1)

    def scaled(self, c) -> "Amp":
        if self.is_exact:
            c = Fraction(c)
            if not c:
                return Amp.zero()
            return Amp.from_counts(self.q, {e: k * c.numerator for e, k in self.counts.items()},
                                   self.den * c.denominator)
        return Amp(value=complex(self) * float(c))

    def __mul__(self, other) -> "Amp":
        if isinstance(other, Phase):
            other = Amp.from_phase(other)
        if self.is_exact and other.is_exact:
            q = math.lcm(self.q, other.q)
            s, t = q // self.q, q // other.q
            out = {}
            for e1, c1 in self.counts.items():
                for e2, c2 in other.counts.items():
                    e = (e1 * s + e2 * t) % q
                    out[e] = out.get(e, 0) + c1 * c2
            return Amp.from_counts(q, {e: c for e, c in out.items() if c}, self.den * other.den)
        return Amp(value=complex(self) * complex(other))

    def conj(self) -> "Amp":
        if self.is_exact:
            q = self.q
            return Amp.from_counts(q, {-e % q: c for e, c in self.counts.items()}, self.den)
        return Amp(value=complex(self).conjugate())

    def __complex__(self):
        if self.is_exact:
            return sum((c / self.den * cmath.exp(2j * math.pi * (e / self.q))
                        for e, c in self.counts.items()), 0j)
        return self.value

    def is_zero(self) -> bool:
        if self.is_exact:
            if len(self.counts) <= 1:  # one root of unity times c != 0
                return not self.counts
            q, counts, _ = self.form()
            return exponent_sum_is_zero(counts, q)
        return abs(self.value) <= _tol

    def equals(self, other: "Amp") -> bool:
        if self.is_exact and other.is_exact:
            # identical forms are equal; different representations of one
            # value still go through the cyclotomic test
            return self.form() == other.form() or (self - other).is_zero()
        return abs(complex(self) - complex(other)) <= _tol

    def polar(self):
        """(m, Phase) with m > 0 and this amplitude m times that phase, or None.

        A float amplitude gives |z| and its argument.  An exact one gives a
        Fraction m, or None when it is no r * zeta (r rational, zeta a root
        of unity).  A sum of roots of unity can collapse to r * zeta, and
        then zeta is an lcm(2, q)-th root of unity, q the conductor of the
        own form: the turn is guessed on that grid and verified exactly.
        """
        if not self.is_exact:
            return abs(self.value), Phase(cmath.phase(self.value) / (2 * math.pi))
        q, counts, den = self.form()
        if len(counts) == 1:
            (e, c), = counts.items()
            return Fraction(abs(c), den), _exact(2 * e + (c < 0) * q, 2 * q)
        z = complex(self)
        if abs(z) < 1e-12:
            return None
        order = math.lcm(2, q)
        e = round(cmath.phase(z) / (2 * math.pi) * order) % order
        m = Fraction(abs(z)).limit_denominator(10 ** 6)
        if m and self.equals(Amp.from_counts(order, {e: m.numerator}, m.denominator)):
            return m, _exact(e, order)
        return None

    def to_json(self):
        """{"q", "counts": [[e, c], ...], "den"} when exact, else {"re", "im"}."""
        if self.is_exact:
            q, counts, den = self.form()
            return {"q": q, "counts": sorted(map(list, counts.items())), "den": den}
        return {"re": self.value.real, "im": self.value.imag}

    @staticmethod
    def from_json(obj) -> "Amp":
        """The amplitude ``to_json`` wrote; exponents are read mod q."""
        if "counts" not in obj:
            z = complex(obj["re"], obj["im"])
            if not cmath.isfinite(z):
                raise PhaseError("amplitude must be finite, got %r" % (obj,))
            return Amp.from_complex(z)
        q, den, counts = obj["q"], obj["den"], obj["counts"]
        if not (all(type(x) is int for x in [q, den, *(x for pair in counts for x in pair)])
                and q > 0 and den > 0):
            raise PhaseError("not an exact amplitude encoding: %r" % (obj,))
        return Amp.from_counts(q, _add_counts((e % q, c) for e, c in counts), den)

    def __repr__(self):
        if self.is_exact:
            return "Amp(q=%d, counts=%r, den=%d)" % self.form()
        return f"Amp({self.value:.12g})"


def _add_counts(pairs):
    """The counts of (exponent, count) pairs, added in one dict, zeros dropped."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}
