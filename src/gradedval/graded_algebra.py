"""The free graded module of a coset system and its invariant part.

The graded module of a coset system has one basis label per pair (lattice
point sigma, residue index); its rank is e * f.  The quotient group
Z^n / A^t Z^n acts on the label of sigma through its characters, read off
the cone pair (|det A|, C) of the parallelepiped walk; the invariant part
is spanned by the labels at the origin, the one point of the trivial coset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationOverflow, GradingMismatch
from .exact_lattice import _check_ints, in_column_lattice
from .monomialization import CosetSystem

# largest rank e * f one module may have, refused before any label is
# built: the report gives the rank and invariant_part builds f labels
_LABEL_BUDGET = 1_000_000


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
        _check_ints((self.residue_degree,), "residue degree")
        if self.residue_degree < 1:
            raise GradingMismatch("residue degree must be at least 1")
        if self.rank > _LABEL_BUDGET:
            raise EnumerationOverflow(
                f"rank e * f = {self.rank} over the budget of "
                f"{_LABEL_BUDGET} basis labels")

    @property
    def rank(self):
        """|Lambda x {1..f}|, counted, not built: the parallelepiped walk
        refuses a point count other than e, so this is e * f."""
        return len(self.system.lattice_points) * self.residue_degree


def is_sigma_trivial(cs: CosetSystem, sigma):
    """True iff sigma lies in the image lattice A^t Z^n."""
    return in_column_lattice(cs.snf_at, sigma)


def invariant_part(module: GradedModule):
    """Basis labels spanning the fixed submodule: the f labels at 0.

    Every walked point p has C p in [0, |det A|)^n, (|det A|, C) the cone
    pair of the walk, and lies in the trivial coset A^t Z^n iff C p = 0
    mod |det A| (fixed_by_all_characters), so iff p = 0; the walk checks
    that 0 is one of the points.
    """
    origin = (0,) * module.system.extension.blocks.n
    return tuple(GradedBasisLabel(sigma=origin, residue_index=i)
                 for i in range(1, module.residue_degree + 1))


def fixed_by_all_characters(module: GradedModule, sigma):
    """Is sigma fixed by every character of Z^n / A^t Z^n?

    (|det A|, C) is the cone pair of the walk, C = |det A| A^{-t}.  A map
    chi: Z^n -> Q/Z with chi(e_j) = h_j mod 1 vanishes on A^t Z^n iff
    A h = k is integral, and then chi(sigma) = k^t C sigma / |det A|; each
    k in Z^n gives a character.  So sigma is fixed by all characters iff
    C sigma = 0 mod |det A|: one n x n product, with no Smith form.
    """
    index, C = module.system.parallelepiped.cone
    return all(x % index == 0 for x in C.apply(sigma))
