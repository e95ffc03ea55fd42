"""Exception hierarchy shared by all gradedval modules."""


class GradedValError(Exception):
    """Base class for all errors raised by this package."""


# -- exact lattice ----------------------------------------------------------

class SingularLattice(GradedValError):
    """The matrix is singular, so the generated subgroup has infinite index."""


class DimensionMismatch(GradedValError):
    """Incompatible matrix/vector dimensions."""


class NonIntegerEntry(GradedValError):
    """A matrix entry is not an int, so it is refused rather than truncated."""


# -- ordered groups ---------------------------------------------------------

class AmbientMismatch(GradedValError):
    """Elements belong to different ambient groups."""


class UnsupportedBlockRank(GradedValError):
    """Archimedean blocks of rational rank >= 3 are not representable."""


class NotASubgroup(GradedValError):
    """The alleged subgroup's generators do not lie in the bigger group."""


class InfiniteIndex(GradedValError):
    """The two groups span different rational vector spaces."""


class NotInGroup(GradedValError):
    """The element does not belong to the finitely generated group."""


# -- affine monoids ---------------------------------------------------------

class NotPointed(GradedValError):
    """No strictly positive linear functional certifies the monoid pointed."""


class DependentGenerators(GradedValError):
    """Parallelepiped generators are linearly dependent."""


class InconsistentParallelepiped(GradedValError):
    """The enumerated parallelepiped points do not number |det| or miss 0."""


# -- monomial extensions ----------------------------------------------------

class InvalidExtension(GradedValError):
    """The monomial extension violates the required block/zero pattern."""


class NonPositiveValue(GradedValError):
    """A derived monomial value is not strictly positive."""


class SingularBlock(GradedValError):
    """A diagonal exponent block is singular."""


# -- monomialization engine -------------------------------------------------

class NotAlongValuation(GradedValError):
    """A transform would make a variable's value non-positive."""


class NotTheorem48Form(GradedValError):
    """Input extension is not in the shape the engine normalizes."""


class NoNonnegativeLift(GradedValError):
    """The bounded search for nonnegative lifting exponents failed."""


class HypothesisA6Failed(GradedValError):
    """|det A| does not equal the subgroup index of the value groups."""


# -- graded modules ---------------------------------------------------------

class GradingMismatch(GradedValError):
    """A term's data is inconsistent with the grading."""


# -- value semigroups -------------------------------------------------------

class NegativeQuery(GradedValError):
    """Membership queried for a negative element."""


class NotASubsemigroup(GradedValError):
    """Generators of the small semigroup do not lie in the big one."""


class NonPositiveGenerator(GradedValError):
    """Semigroup generators must be strictly positive."""


class EnumerationOverflow(GradedValError):
    """A search, enumeration or box check exceeded its cap, or an input
    lies past the range a test decides (a primality test's bound)."""


# -- ramification ledger ----------------------------------------------------

class Inconsistent(GradedValError):
    """Numeric ramification data contradicts the defining identities."""


class CharMismatch(GradedValError):
    """Tower factors have different residue characteristics."""


class MissingIndex(GradedValError):
    """A required index (d, g or r) is absent from the record."""


# -- serialization / CLI ----------------------------------------------------

class ParseError(GradedValError):
    """Malformed input document."""


class MalformedStep(ParseError):
    """A transform step has an unknown kind, or names a row, target or
    exponent row outside the extension."""
