"""Species/character data model: aligned sequences over per-column state alphabets.

A matrix holds n species, each an m-tuple of character states.  Every
column gets its own alphabet inferred from the symbols observed in it.
The scoring engine packs these states into bit-flag sets itself
(:class:`~parsicompact.parsimony.Scorer`).
"""

from __future__ import annotations

import io
import random
from collections.abc import Mapping

from .errors import (
    AlphabetTooLargeError,
    AmbiguousSymbolError,
    BadColumnRangeError,
    BadSubsetSizeError,
    DuplicateSpeciesError,
    EmptyInputError,
    LengthMismatchError,
    SpeciesNameError,
)

# Per-character alphabets must fit in one machine word of flags.
WORD_WIDTH = 64

# Symbols treated as gaps/unknowns and rejected unless explicitly allowed.
DEFAULT_REJECT = frozenset("-.?*nNxX")


class CharacterMatrix:
    """Immutable n-species x m-characters state matrix.

    Construct via :func:`parse_fasta`, :meth:`from_rows`, or the synthetic
    generators; :meth:`from_rows` is the one way in for outside data, and
    the one place it is checked.  ``names`` lists the species in input
    order, ``alphabets[c]`` is the sorted tuple of column c's symbols, and
    ``values`` maps each species name to its m-tuple of state indices into
    them.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        alphabets: tuple[tuple[str, ...], ...],
        values: dict[str, tuple[int, ...]],
    ):
        """Take parts that :meth:`from_rows` has checked; :meth:`from_rows`
        is the way in."""
        self.names = names
        self.alphabets = alphabets
        self.values = values
        self.n = len(names)
        self.m = len(alphabets)

    # -- views -----------------------------------------------------------

    def rows(self) -> list[tuple[str, str]]:
        alphabets = self.alphabets
        return [
            (name, "".join(alphabets[c][s] for c, s in enumerate(self.values[name])))
            for name in self.names
        ]

    def __eq__(self, other):
        if not isinstance(other, CharacterMatrix):
            return NotImplemented
        return self.rows() == other.rows()

    def __hash__(self):
        return hash(tuple(self.rows()))

    def __repr__(self):
        return f"CharacterMatrix(n={self.n}, m={self.m})"

    # -- construction ----------------------------------------------------

    @classmethod
    def from_rows(cls, rows, allow_ambiguity: bool = False) -> "CharacterMatrix":
        """Build a matrix from (name, symbol string) pairs or a name->string mapping.

        Alphabets are inferred per column from the observed symbols, in
        sorted order.  Gap/unknown symbols raise unless ``allow_ambiguity``
        turns each of them into an ordinary extra state.  A name must be
        non-empty, hold no whitespace, which a FASTA header cannot carry,
        and name one record only.  Of several faults, the first of these
        raises: no records, an empty sequence, per record an empty name,
        whitespace or a wrong length, an ambiguity symbol, a column with
        more than 64 states, a duplicate name.
        """
        if isinstance(rows, Mapping):
            rows = rows.items()
        rows = list(rows)
        if not rows:
            raise EmptyInputError("no sequence records")
        m = len(rows[0][1])
        if m == 0:
            raise EmptyInputError(f"record {rows[0][0]!r} has an empty sequence")
        for name, seq in rows:
            if not name:
                raise EmptyInputError("a record has an empty name")
            if any(ch.isspace() for ch in name):
                raise SpeciesNameError(f"species name {name!r} contains whitespace")
            if len(seq) != m:
                raise LengthMismatchError(
                    f"record {name!r} has length {len(seq)}, expected {m}"
                )
        if not allow_ambiguity:
            for name, seq in rows:
                bad = set(seq) & DEFAULT_REJECT
                if bad:
                    raise AmbiguousSymbolError(
                        f"record {name!r} contains gap/ambiguity symbol(s) "
                        f"{sorted(bad)}; pass allow_ambiguity to keep them as states"
                    )
        alphabets = []
        for c in range(m):
            symbols = tuple(sorted({seq[c] for _, seq in rows}))
            if len(symbols) > WORD_WIDTH:
                raise AlphabetTooLargeError(
                    f"character {c}: {len(symbols)} states "
                    f"exceed the {WORD_WIDTH}-bit flag word"
                )
            alphabets.append(symbols)
        names = tuple(name for name, _ in rows)
        if len(set(names)) != len(names):
            dup = next(nm for nm in names if names.count(nm) > 1)
            raise DuplicateSpeciesError(f"duplicate species name {dup!r}")
        index = [{s: i for i, s in enumerate(a)} for a in alphabets]
        values = {
            name: tuple(index[c][seq[c]] for c in range(m)) for name, seq in rows
        }
        return cls(names, tuple(alphabets), values)


def parse_fasta(source, allow_ambiguity: bool = False) -> CharacterMatrix:
    """Parse aligned FASTA ('>' headers, equal-length records) into a matrix.

    Whitespace inside a sequence line is dropped.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = []
    name = None
    chunks: list[str] = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                rows.append((name, "".join(chunks)))
            # keep only the identifier token; the rest is free description
            name = (line[1:].split() or [""])[0]
            chunks = []
        else:
            if name is None:
                raise EmptyInputError("sequence data before the first '>' header")
            chunks.append("".join(line.split()))
    if name is not None:
        rows.append((name, "".join(chunks)))
    if not rows:
        raise EmptyInputError("no FASTA records found")
    return CharacterMatrix.from_rows(rows, allow_ambiguity=allow_ambiguity)


def write_fasta(matrix: CharacterMatrix) -> str:
    """Serialize back to FASTA; re-parsing yields an equal matrix."""
    out = []
    for name, seq in matrix.rows():
        out.append(f">{name}\n{seq}\n")
    return "".join(out)


def restrict_columns(matrix: CharacterMatrix, k: int) -> CharacterMatrix:
    """Keep the first k characters; alphabets are re-inferred."""
    if not 1 <= k <= matrix.m:
        raise BadColumnRangeError(f"column count {k} outside 1..{matrix.m}")
    return CharacterMatrix.from_rows(
        [(name, seq[:k]) for name, seq in matrix.rows()], allow_ambiguity=True
    )


def subsample_species(matrix: CharacterMatrix, count: int, seed: int) -> CharacterMatrix:
    """Pick ``count`` distinct species at random; deterministic for a seed."""
    if not 1 <= count <= matrix.n:
        raise BadSubsetSizeError(f"subset size {count} outside 1..{matrix.n}")
    rng = random.Random(seed)
    picked = rng.sample(range(matrix.n), count)
    rows = matrix.rows()
    return CharacterMatrix.from_rows([rows[i] for i in picked], allow_ambiguity=True)


# -- synthetic data for benchmarks and tests ------------------------------

def _symbols(states: int) -> str:
    """The generators' first ``states`` symbols, of 24; checked before any draw."""
    if not 1 <= states <= 24:
        raise ValueError(f"states must be in 1..24, got {states}")
    return "ACGTBDEFHIJKLMOPQRSUVWYZ"[:states]


def random_matrix(n: int, m: int, states: int = 4, seed: int = 0) -> CharacterMatrix:
    """Uniform i.i.d. random matrix over the first ``states`` DNA-ish symbols."""
    symbols = _symbols(states)
    rng = random.Random(seed)
    rows = [
        (f"S{i+1}", "".join(rng.choice(symbols) for _ in range(m)))
        for i in range(n)
    ]
    return CharacterMatrix.from_rows(rows)


def evolved_matrix(
    n: int,
    m: int,
    states: int = 4,
    seed: int = 0,
    mutation_rate: float = 0.15,
) -> CharacterMatrix:
    """Random matrix evolved along a random binary coalescent-style tree.

    Produces alignment-like data (shared ancestry, moderate divergence),
    which is the regime the search benchmarks target.  Each tree edge
    mutates each character independently with ``mutation_rate``.
    """
    symbols = _symbols(states)
    rng = random.Random(seed)

    def mutate(seq):
        out = list(seq)
        for c in range(m):
            if rng.random() < mutation_rate:
                out[c] = rng.choice(symbols)
        return "".join(out)

    # Grow a random genealogy: split a random extant lineage until n tips.
    root = "".join(rng.choice(symbols) for _ in range(m))
    tips = [root]
    while len(tips) < n:
        parent = tips.pop(rng.randrange(len(tips)))
        tips.append(mutate(parent))
        tips.append(mutate(parent))
    rng.shuffle(tips)
    rows = [(f"S{i+1}", seq) for i, seq in enumerate(tips[:n])]
    return CharacterMatrix.from_rows(rows)
