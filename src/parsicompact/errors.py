"""Exception hierarchy shared by all parsicompact modules."""


class ParsicompactError(Exception):
    """Base class for every error raised by this package."""


# --- character matrix ---------------------------------------------------

class EmptyInputError(ParsicompactError):
    """Input contained no sequence records, or a record with no name."""


class LengthMismatchError(ParsicompactError):
    """Aligned sequences do not all have the same length."""


class DuplicateSpeciesError(ParsicompactError):
    """Two records share the same species name."""


class SpeciesNameError(ParsicompactError):
    """A species name holds whitespace, which a FASTA header cannot carry."""


class AmbiguousSymbolError(ParsicompactError):
    """A gap or ambiguity symbol was found and not explicitly allowed."""


class AlphabetTooLargeError(ParsicompactError):
    """A character column has more states than fit in one flag word."""


class BadColumnRangeError(ParsicompactError):
    """Requested column count is outside 1..m."""


class BadSubsetSizeError(ParsicompactError):
    """Requested species subset size is outside 1..n."""


# --- tree topology ------------------------------------------------------

class TreeStructureError(ParsicompactError):
    """Tree violates a structural invariant (connectivity, degrees, labels)."""


class DuplicateLabelError(TreeStructureError):
    """Species already labels a node in this tree."""


class AlreadyLabelledError(TreeStructureError):
    """Target node carries a label and cannot take another."""


class NewickParseError(ParsicompactError):
    """Malformed Newick text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EmptyTreeError(ParsicompactError):
    """A tree with no nodes given where one needs a node: to score it, key it
    or write it as Newick."""


# --- scoring ------------------------------------------------------------

class UnlabelledLeafError(ParsicompactError):
    """A leaf without a species label cannot be scored."""


class MissingSpeciesError(ParsicompactError):
    """Tree references a species name absent from the matrix."""


class OracleTooLargeError(ParsicompactError):
    """Brute-force enumeration would exceed the configured cap."""


# --- contraction --------------------------------------------------------

class IllegalContractionError(ParsicompactError):
    """Edge is not contractible (min-cost > 0 or label collision)."""
