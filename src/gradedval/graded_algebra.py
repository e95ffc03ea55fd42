"""The free graded module of a coset system and its invariant part.

The graded module of a coset system has one basis label per pair (lattice
point sigma, residue index); its rank is e * f.  The quotient group
Z^n / A^t Z^n acts on the label of sigma through the character
chi(g, sigma) = sum_i (U g)_i (U sigma)_i / d_i in Q/Z, from the Smith
form U A^t V = diag(d_1 | ... | d_n).  The invariant part is spanned by
the labels whose sigma lies in the trivial coset A^t Z^n, and that is the
origin alone: the parallelepiped walk maps each of the e distinct Smith
residues within its own class and checks that 0 is among the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def character_rows(self):
        """U g for every lattice point g: computed once per module."""
        U = self.system.snf_at.U
        return tuple(U.apply(g) for g in self.system.lattice_points)


def is_sigma_trivial(cs: CosetSystem, sigma):
    """True iff sigma lies in the image lattice A^t Z^n."""
    return in_column_lattice(cs.snf_at, sigma)


def invariant_part(module: GradedModule):
    """Basis labels spanning the fixed submodule: the f labels at 0.

    The lattice points are the e distinct Smith residues of Z^n / A^t Z^n,
    each mapped within its own class, so each class holds exactly one of
    them; 0 is one (checked by the parallelepiped walk), so it is the only
    point in the trivial coset.
    """
    origin = (0,) * module.system.extension.blocks.n
    return tuple(GradedBasisLabel(sigma=origin, residue_index=i)
                 for i in range(1, module.residue_degree + 1))


def fixed_by_all_characters(module: GradedModule, sigma):
    """Brute force over the full quotient group: is sigma's phase trivial?

    chi(g, sigma) depends only on g's class, and the lattice points are one
    representative per class.  It vanishes exactly when sum_i (U g)_i
    (U sigma)_i (d_n / d_i) = 0 mod d_n, as every d_i divides d_n: an
    integer test against the character rows.
    """
    snf = module.system.snf_at
    diag = snf.D.diagonal_entries()
    weights = [b * (diag[-1] // d) for b, d in zip(snf.U.apply(sigma), diag)]
    return all(sum(a * w for a, w in zip(row, weights)) % diag[-1] == 0
               for row in module.character_rows)
