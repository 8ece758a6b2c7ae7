"""Exact arithmetic over unit-modulus complex scalars.

A phase is stored as a "turn" t with value exp(2*pi*i*t).  Rational turns
(roots of unity) are kept as reduced fractions and all arithmetic on them is
exact; arbitrary unimodular scalars fall back to a real turn in [0, 1) with
tolerance-based comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

#: Global tolerance for float-mode comparisons (CLI-overridable).
DEFAULT_TOL = 1e-10

_tol = DEFAULT_TOL


def set_tolerance(tol):
    """Set the global float-comparison tolerance (must be > 0)."""
    global _tol
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _tol = tol


def get_tolerance():
    return _tol


class PhaseError(ValueError):
    pass


@dataclass(frozen=True)
class Phase:
    """A unit-modulus complex number exp(2*pi*i*turn).

    ``turn`` is a Fraction (exact root of unity) or a float in [0, 1).
    Products and quotients of rational-turn phases never degrade to float.
    """

    turn: Union[Fraction, float]

    def __post_init__(self):
        t = self.turn
        if isinstance(t, Fraction):
            object.__setattr__(self, "turn", t % 1)
        elif isinstance(t, int):
            object.__setattr__(self, "turn", Fraction(0))
        else:
            object.__setattr__(self, "turn", float(t) % 1.0)

    @property
    def is_exact(self):
        return isinstance(self.turn, Fraction)

    def __mul__(self, other: "Phase") -> "Phase":
        if self.is_exact and other.is_exact:
            return Phase(self.turn + other.turn)
        return Phase(float(self.turn) + float(other.turn))

    def __truediv__(self, other: "Phase") -> "Phase":
        if self.is_exact and other.is_exact:
            return Phase(self.turn - other.turn)
        return Phase(float(self.turn) - float(other.turn))

    def __pow__(self, n: int) -> "Phase":
        if self.is_exact:
            return Phase(self.turn * n)
        return Phase(float(self.turn) * n)

    def conj(self) -> "Phase":
        if self.is_exact:
            return Phase(-self.turn)
        return Phase(-float(self.turn))

    def __complex__(self):
        return cmath.exp(2j * math.pi * float(self.turn))

    def close_to(self, other: "Phase") -> bool:
        """Equality, exact for rational turns, tolerance-based otherwise."""
        if self.is_exact and other.is_exact:
            return self.turn == other.turn
        diff = (float(self.turn) - float(other.turn)) % 1.0
        return min(diff, 1.0 - diff) <= _tol

    def to_json(self):
        if self.is_exact:
            return {"turn": {"num": self.turn.numerator, "den": self.turn.denominator}}
        return {"turn_real": float(self.turn)}

    @staticmethod
    def from_json(obj) -> "Phase":
        if "turn" in obj:
            return Phase(Fraction(obj["turn"]["num"], obj["turn"]["den"]))
        if "turn_real" in obj:
            return Phase(float(obj["turn_real"]))
        raise PhaseError("not a phase encoding: %r" % (obj,))

    def __repr__(self):
        if self.is_exact:
            return f"Phase({self.turn})"
        return f"Phase({float(self.turn):.12g})"


ONE = Phase(Fraction(0))
MINUS_ONE = Phase(Fraction(1, 2))


def root_of_unity(q: int, p: int = 1) -> Phase:
    """exp(2*pi*i*p/q) as a reduced rational turn."""
    if q < 1:
        raise PhaseError("root order must be a positive integer, got %r" % q)
    return Phase(Fraction(p, q))


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
    if x.is_exact:
        base = x.turn / d
        roots = [Phase(base + Fraction(m, d)) for m in range(d)]
    else:
        base = float(x.turn) / d
        roots = [Phase(base + m / d) for m in range(d)]
    return sorted(roots, key=lambda r: r.turn)


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

    ``coeffs`` maps exponent -> Fraction.  Returns a dense list of Fractions of
    length deg(Phi_q); the represented sum of roots of unity is zero iff every
    entry is zero.
    """
    phi = _cyclotomic_coeffs(q)
    deg = len(phi) - 1
    low = [(i, c) for i, c in enumerate(phi[:deg]) if c]
    # clear denominators so the division by the monic integer Phi_q runs in ints
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    work = [0] * q
    for e, c in coeffs.items():
        work[e % q] += int(c * den)
    # long division over the nonzero lower coefficients of Phi_q
    for e in range(q - 1, deg - 1, -1):
        c = work[e]
        if c:
            work[e] = 0
            for i, p in low:
                work[e - deg + i] -= c * p
    return [Fraction(c, den) for c in work[:deg]]


def exponent_sum_is_zero(coeffs, q) -> bool:
    """Does sum(c * w^e) over coeffs (exponent -> integer or Fraction c)
    vanish, w the primitive q-th root of unity?  Exact, by reduction modulo
    the q-th cyclotomic polynomial."""
    return not any(_reduce_mod_cyclotomic(coeffs, q))


class Amp:
    """A complex amplitude, exact (rational combination of roots of unity) or float.

    Exact mode stores a map turn-Fraction -> rational coefficient; sums of
    roots of unity are compared by reduction modulo the cyclotomic polynomial,
    so zero-tests and equality are exact.  Any real-turn contribution switches
    the value to a complex double.
    """

    __slots__ = ("terms", "value")

    def __init__(self, terms=None, value=None):
        self.terms = terms  # dict Fraction -> Fraction, or None in float mode
        self.value = value  # complex, or None in exact mode

    @staticmethod
    def zero() -> "Amp":
        return Amp(terms={})

    @staticmethod
    def one() -> "Amp":
        return Amp(terms={Fraction(0): Fraction(1)})

    @staticmethod
    def from_phase(p: Phase, coeff=Fraction(1)) -> "Amp":
        if p.is_exact:
            return Amp(terms={p.turn: Fraction(coeff)})
        return Amp(value=complex(p) * float(coeff))

    @staticmethod
    def from_complex(z) -> "Amp":
        return Amp(value=complex(z))

    @property
    def is_exact(self):
        return self.terms is not None

    def __add__(self, other: "Amp") -> "Amp":
        if self.is_exact and other.is_exact:
            out = dict(self.terms)
            for t, c in other.terms.items():
                out[t] = out.get(t, Fraction(0)) + c
                if not out[t]:
                    del out[t]
            return Amp(terms=out)
        return Amp(value=complex(self) + complex(other))

    def __sub__(self, other: "Amp") -> "Amp":
        return self + other.scaled(Fraction(-1))

    def scaled(self, c) -> "Amp":
        if self.is_exact:
            c = Fraction(c)
            if not c:
                return Amp.zero()
            return Amp(terms={t: k * c for t, k in self.terms.items()})
        return Amp(value=complex(self) * float(c))

    def __mul__(self, other) -> "Amp":
        if isinstance(other, Phase):
            other = Amp.from_phase(other)
        if self.is_exact and other.is_exact:
            out = {}
            for t1, c1 in self.terms.items():
                for t2, c2 in other.terms.items():
                    t = (t1 + t2) % 1
                    out[t] = out.get(t, Fraction(0)) + c1 * c2
            return Amp(terms={t: c for t, c in out.items() if c})
        return Amp(value=complex(self) * complex(other))

    def conj(self) -> "Amp":
        if self.is_exact:
            return Amp(terms={(-t) % 1: c for t, c in self.terms.items()})
        return Amp(value=complex(self).conjugate())

    def __complex__(self):
        if self.is_exact:
            return sum(
                (float(c) * cmath.exp(2j * math.pi * float(t)) for t, c in self.terms.items()),
                0j,
            )
        return self.value

    def is_zero(self) -> bool:
        if self.is_exact:
            if len(self.terms) <= 1:
                # one root of unity times c vanishes iff c does
                return not any(self.terms.values())
            q = math.lcm(*(t.denominator for t in self.terms))
            coeffs = {}
            for t, c in self.terms.items():
                e = int(t * q)
                coeffs[e] = coeffs.get(e, Fraction(0)) + c
            return exponent_sum_is_zero(coeffs, q)
        return abs(self.value) <= _tol

    def equals(self, other: "Amp") -> bool:
        if self.is_exact and other.is_exact:
            return (self - other).is_zero()
        return abs(complex(self) - complex(other)) <= _tol

    def as_single_phase(self):
        """Return this amplitude as a Phase if it is exactly one unit root, else None."""
        if self.is_exact:
            if len(self.terms) == 1:
                (t, c), = self.terms.items()
                if c == 1:
                    return Phase(t)
            return None
        z = self.value
        if abs(abs(z) - 1.0) <= _tol:
            return Phase(cmath.phase(z) / (2 * math.pi))
        return None

    def __repr__(self):
        if self.is_exact:
            return "Amp(%s)" % " + ".join(f"{c}*e({t})" for t, c in sorted(self.terms.items()))
        return f"Amp({self.value:.12g})"
