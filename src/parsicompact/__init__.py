"""Most compact maximum-parsimony trees over mixed-labelled topologies.

The package scores trees whose internal nodes may carry species labels
(Hartigan state sets, bit-packed across all characters), enumerates
cubic and mixed topologies exhaustively with a cost bound, and shrinks
cubic optima into most compact form by contracting zero-min-cost edges
over every order.
"""

from .charmatrix import (
    CharacterMatrix,
    evolved_matrix,
    parse_fasta,
    random_matrix,
    restrict_columns,
    subsample_species,
    write_fasta,
)
from .contract import (
    CompactResultSet,
    contract_and_update,
    most_compact_pipeline,
    zero_min_cost_edges,
)
from .enumeration import (
    SearchRecord,
    closed_form_estimate,
    count_cubic,
    count_mixed,
    count_total_mixed,
    enumerate_cubic,
    enumerate_mixed,
    order_species,
)
from .errors import (
    AlphabetTooLargeError,
    AlreadyLabelledError,
    AmbiguousSymbolError,
    BadColumnRangeError,
    BadSubsetSizeError,
    DuplicateLabelError,
    DuplicateSpeciesError,
    EmptyInputError,
    EmptyTreeError,
    IllegalContractionError,
    LengthMismatchError,
    MissingSpeciesError,
    NewickParseError,
    OracleTooLargeError,
    ParsicompactError,
    SpeciesNameError,
    TreeStructureError,
    UnlabelledLeafError,
)
from .parsimony import (
    FitAssignment,
    OracleResult,
    ScoreResult,
    Scorer,
    brute_force_best_fit,
    unpack_sets,
)
from .tree import CanonicalKey, MixedTree, parse_newick

__version__ = "0.1.0"

__all__ = [
    "AlphabetTooLargeError",
    "AlreadyLabelledError",
    "AmbiguousSymbolError",
    "BadColumnRangeError",
    "BadSubsetSizeError",
    "CanonicalKey",
    "CharacterMatrix",
    "CompactResultSet",
    "DuplicateLabelError",
    "DuplicateSpeciesError",
    "EmptyInputError",
    "EmptyTreeError",
    "FitAssignment",
    "IllegalContractionError",
    "LengthMismatchError",
    "MissingSpeciesError",
    "MixedTree",
    "NewickParseError",
    "OracleResult",
    "OracleTooLargeError",
    "ParsicompactError",
    "ScoreResult",
    "Scorer",
    "SearchRecord",
    "SpeciesNameError",
    "TreeStructureError",
    "UnlabelledLeafError",
    "brute_force_best_fit",
    "closed_form_estimate",
    "contract_and_update",
    "count_cubic",
    "count_mixed",
    "count_total_mixed",
    "enumerate_cubic",
    "enumerate_mixed",
    "evolved_matrix",
    "most_compact_pipeline",
    "order_species",
    "parse_fasta",
    "parse_newick",
    "random_matrix",
    "restrict_columns",
    "subsample_species",
    "unpack_sets",
    "write_fasta",
    "zero_min_cost_edges",
]
