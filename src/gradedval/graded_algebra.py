"""The free graded module of a coset system and its invariant part.

The graded module of a coset system has one basis label per pair (lattice
point sigma, residue index); its rank is e * f.  The quotient group of the
coset system acts on the label of sigma through an explicit character
chi(g, sigma) valued in Q/Z, computed exactly from the Smith form of A^t;
the invariant part is spanned by the labels whose sigma is in the trivial
coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, GradingMismatch
from .exact_lattice import in_column_lattice
from .monomialization import CosetSystem


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

    def basis_labels(self):
        return tuple(
            GradedBasisLabel(sigma=sigma, residue_index=i)
            for sigma in self.system.lattice_points
            for i in range(1, self.residue_degree + 1))


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


def fixed_by_all_characters(module: GradedModule, sigma):
    """Brute force over the full quotient group: is sigma's phase trivial?

    chi(g, sigma) depends only on g's class in Z^n / A^t Z^n, and the
    lattice points are one representative per class (count checked)."""
    cs = module.system
    return all(
        galois_character(cs, g, sigma) == 0 for g in cs.lattice_points)
