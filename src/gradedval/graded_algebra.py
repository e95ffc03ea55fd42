"""Graded algebras over value semigroups and the free module decomposition.

The graded module of a coset system has one basis label per pair (lattice
point sigma, residue index); its rank is e * f.  Elements are finite sums of
terms g_(sigma,gamma) * tau_sigma * y^sigma, where gamma ranges over the
grading semigroup and coefficients live in an abstract f-dimensional residue
space.  The quotient group of the coset system acts through an explicit
character valued in Q/Z; phases are kept as formal root-of-unity tags, so no
inexact arithmetic ever enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    GradingMismatch,
    NegativeQuery,
    ZeroElement,
)
from .exact_lattice import in_column_lattice
from .monomialization import CosetSystem
from .value_semigroups import ValueSemigroup


@dataclass(frozen=True)
class GradedAlgebra:
    """Value-semigroup-graded algebra with an abstract degree-0 part."""

    semigroup: ValueSemigroup
    residue_degree: int

    def __post_init__(self):
        if self.residue_degree < 1:
            raise GradingMismatch("residue degree must be at least 1")


def base_change_unramified(g: GradedAlgebra, f: int) -> GradedAlgebra:
    """Unramified base change: same grading semigroup, residue part scaled."""
    if f < 1:
        raise GradingMismatch("base change degree must be at least 1")
    return GradedAlgebra(semigroup=g.semigroup,
                         residue_degree=g.residue_degree * f)


@dataclass(frozen=True)
class GradedBasisLabel:
    sigma: tuple
    residue_index: int


@dataclass(frozen=True)
class GradedModule:
    """Free graded module over a coset system with residue degree f."""

    system: CosetSystem
    residue_degree: int

    def __post_init__(self):
        if self.residue_degree < 1:
            raise GradingMismatch("residue degree must be at least 1")

    @property
    def free_rank_value(self):
        return self.system.e * self.residue_degree

    def basis_labels(self):
        return tuple(
            GradedBasisLabel(sigma=sigma, residue_index=i)
            for sigma in self.system.lattice_points
            for i in range(1, self.residue_degree + 1))

    def value_map(self, sigma):
        try:
            k = self.system.lattice_points.index(tuple(sigma))
        except ValueError:
            raise GradingMismatch(
                f"{sigma} is not a lattice point of the coset system")
        return self.system.values[k]

    def element(self, terms):
        """Build an element from (sigma, gamma, coeffs[, phase]) tuples."""
        fixed = []
        for item in terms:
            sigma, gamma, coeffs = item[0], item[1], item[2]
            phase = item[3] if len(item) > 3 else 0
            fixed.append(Term(
                sigma=tuple(int(x) for x in sigma),
                gamma=gamma,
                coeffs=tuple(Fraction(c) for c in coeffs),
                phase=Fraction(phase) % 1,
            ))
        return GradedModuleElement(module=self, terms=tuple(fixed))

    def zero(self):
        return GradedModuleElement(module=self, terms=())


@dataclass(frozen=True)
class Term:
    sigma: tuple
    gamma: object
    coeffs: tuple
    phase: Fraction

    def key(self):
        return (self.sigma, self.gamma.flat())


@dataclass(frozen=True)
class GradedModuleElement:
    """Finite sum of graded terms; zero is the empty term list."""

    module: GradedModule
    terms: tuple

    def __post_init__(self):
        f = self.module.residue_degree
        seen = set()
        fixed = []
        for t in self.terms:
            if t.sigma not in self.module.system.lattice_points:
                raise GradingMismatch(
                    f"term label {t.sigma} outside the lattice point set")
            if len(t.coeffs) != f:
                raise GradingMismatch(
                    "coefficient vector length must equal the residue degree")
            if all(c == 0 for c in t.coeffs):
                continue
            if t.gamma.sign() < 0:
                raise NegativeQuery("grading degree must be nonnegative")
            if t.key() in seen:
                raise GradingMismatch(
                    f"duplicate term at sigma={t.sigma}")
            seen.add(t.key())
            fixed.append(t)
        fixed.sort(key=lambda t: (t.sigma, t.gamma.flat()))
        object.__setattr__(self, "terms", tuple(fixed))

    def is_zero(self):
        return not self.terms

    def term_value(self, t: Term):
        return t.gamma + self.module.value_map(t.sigma)

    def __add__(self, other):
        if self.module != other.module:
            raise GradingMismatch("elements of different modules")
        merged = {t.key(): t for t in self.terms}
        for t in other.terms:
            k = t.key()
            if k not in merged:
                merged[k] = t
                continue
            s = merged[k]
            if s.phase != t.phase:
                raise GradingMismatch(
                    "cannot add terms carrying different formal phases")
            coeffs = tuple(a + b for a, b in zip(s.coeffs, t.coeffs))
            merged[k] = Term(sigma=s.sigma, gamma=s.gamma, coeffs=coeffs,
                             phase=s.phase)
        return GradedModuleElement(module=self.module,
                                   terms=tuple(merged.values()))

    def scale(self, c):
        c = Fraction(c)
        return GradedModuleElement(module=self.module, terms=tuple(
            Term(sigma=t.sigma, gamma=t.gamma,
                 coeffs=tuple(c * x for x in t.coeffs), phase=t.phase)
            for t in self.terms))


def element_value(x: GradedModuleElement):
    """Value of a nonzero element: the least term value in lex order."""
    if x.is_zero():
        raise ZeroElement("the zero element has no value")
    best = None
    for t in x.terms:
        v = x.term_value(t)
        if best is None or v < best:
            best = v
    return best


def expand(x: GradedModuleElement):
    """Unique decomposition by lattice point: list of (sigma, component)."""
    by_sigma = {}
    for t in x.terms:
        by_sigma.setdefault(t.sigma, []).append(t)
    return [
        (sigma, GradedModuleElement(module=x.module, terms=tuple(terms)))
        for sigma, terms in sorted(by_sigma.items())
    ]


def free_rank(cs: CosetSystem, f: int) -> int:
    if f < 1:
        raise GradingMismatch("residue degree must be at least 1")
    return cs.e * f


def galois_character(cs: CosetSystem, g_bar, sigma) -> Fraction:
    """chi(g, sigma) in Q/Z via the Smith-adapted pairing of the quotient."""
    snf = cs.snf_at
    diag = snf.D.diagonal_entries()
    n = len(diag)
    if len(g_bar) != n or len(sigma) != n:
        raise DimensionMismatch("vector length differs from the rank")
    ug = snf.U.apply(g_bar)
    us = snf.U.apply(sigma)
    total = sum(Fraction(a * b, d) for a, b, d in zip(ug, us, diag))
    return total % 1


def galois_character_action(g_bar, x: GradedModuleElement):
    """Twist each term's formal phase by chi(g, sigma)."""
    cs = x.module.system
    return GradedModuleElement(module=x.module, terms=tuple(
        Term(sigma=t.sigma, gamma=t.gamma, coeffs=t.coeffs,
             phase=(t.phase + galois_character(cs, g_bar, t.sigma)) % 1)
        for t in x.terms))


def is_sigma_trivial(cs: CosetSystem, sigma):
    """True iff sigma lies in the image lattice A^t Z^n."""
    return in_column_lattice(cs.snf_at, sigma)


def invariant_part(module: GradedModule):
    """Basis labels spanning the fixed submodule: sigma in the trivial coset.

    Verified elsewhere (and in the acceptance suite) to coincide with the
    simultaneous fixed set of all character actions.
    """
    return tuple(
        lbl for lbl in module.basis_labels()
        if is_sigma_trivial(module.system, lbl.sigma))


def invariant_projection(x: GradedModuleElement):
    """Projection of an element onto its sigma-trivial terms."""
    cs = x.module.system
    return GradedModuleElement(module=x.module, terms=tuple(
        t for t in x.terms if is_sigma_trivial(cs, t.sigma)))


def fixed_by_all_characters(module: GradedModule, sigma):
    """Brute force over the full quotient group: is sigma's phase trivial?

    chi(g, sigma) depends only on g's class in Z^n / A^t Z^n, and the
    lattice points are one representative per class (count checked)."""
    cs = module.system
    return all(
        galois_character(cs, g, sigma) == 0 for g in cs.lattice_points)
