"""Arithmetic bookkeeping for local extensions.

Pure index calculus: the degree identity N = e * f * p^delta, the d/g/r
indices with their integrality and tower multiplicativity, and the
unramified criterion r = 1.  Records are claims about numbers only; nothing
here inspects actual rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CharMismatch,
    EnumerationOverflow,
    Inconsistent,
    MissingIndex,
)


# Miller-Rabin with the first 13 primes as bases decides primality of
# every integer below _PRIME_BOUND, the least strong pseudoprime to all
# of them (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp., 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin primality for p < _PRIME_BOUND; raises
    EnumerationOverflow above it, where the bases decide nothing."""
    if p < 2:
        return False
    if p >= _PRIME_BOUND:
        raise EnumerationOverflow(
            f"primality is decided only below {_PRIME_BOUND}")
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def ostrowski_defect(N, e, f, p):
    """The defect exponent delta with N = e * f * p^delta.

    Residue characteristic 0 admits no defect: N must equal e * f.
    """
    if N < 1 or e < 1 or f < 1:
        raise Inconsistent("degree and indices must be positive")
    if p != 0 and not _is_prime(p):
        raise Inconsistent(f"residue characteristic {p} is not 0 or prime")
    if N % (e * f):
        raise Inconsistent(f"e * f = {e * f} does not divide N = {N}")
    q = N // (e * f)
    if p == 0:
        if q != 1:
            raise Inconsistent(
                "characteristic 0 forces N = e * f exactly")
        return 0
    delta = 0
    while q % p == 0:
        q //= p
        delta += 1
    if q != 1:
        raise Inconsistent(
            f"N / (e * f) = {N // (e * f)} is not a power of {p}")
    return delta


@dataclass(frozen=True)
class ExtensionRecord:
    """Degree, ramification and residue data of one local extension."""

    N: int
    e: int
    f: int
    p: int
    delta: int | None = None
    d: Fraction | None = None
    g: Fraction | None = None

    def __post_init__(self):
        delta = self.delta
        if delta is None:
            delta = ostrowski_defect(self.N, self.e, self.f, self.p)
        else:
            if delta != ostrowski_defect(self.N, self.e, self.f, self.p):
                raise Inconsistent(
                    f"declared defect {delta} contradicts the degree identity")
        object.__setattr__(self, "delta", delta)
        if (self.d is None) != (self.g is None):
            raise MissingIndex("d and g must be given together")
        if self.d is not None:
            d, g = Fraction(self.d), Fraction(self.g)
            if d <= 0 or g <= 0:
                raise Inconsistent("d and g must be positive")
            r = d / g
            if r.denominator != 1:
                raise Inconsistent(f"r = d / g = {r} is not an integer")
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "g", g)

    @property
    def r(self):
        if self.d is None:
            raise MissingIndex("record carries no d and g indices")
        return int(self.d / self.g)


def trivial_record(p=0):
    return ExtensionRecord(N=1, e=1, f=1, p=p, d=Fraction(1), g=Fraction(1))


def compose_tower(lower: ExtensionRecord,
                  upper: ExtensionRecord) -> ExtensionRecord:
    """Componentwise products; defects add in positive characteristic."""
    if lower.p != upper.p:
        raise CharMismatch(
            f"residue characteristics differ: {lower.p} vs {upper.p}")
    d = g = None
    if lower.d is not None and upper.d is not None:
        d = lower.d * upper.d
        g = lower.g * upper.g
    return ExtensionRecord(
        N=lower.N * upper.N,
        e=lower.e * upper.e,
        f=lower.f * upper.f,
        p=lower.p,
        delta=lower.delta + upper.delta,
        d=d,
        g=g,
    )


def unramified_criterion(rec: ExtensionRecord) -> bool:
    """True iff r = d / g equals 1."""
    return rec.r == 1

