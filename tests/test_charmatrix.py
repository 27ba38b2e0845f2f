"""Character-matrix parsing, packing, and sampling."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsicompact import (
    AlphabetTooLargeError,
    AmbiguousSymbolError,
    BadColumnRangeError,
    BadSubsetSizeError,
    CharacterMatrix,
    DuplicateSpeciesError,
    EmptyInputError,
    LengthMismatchError,
    Scorer,
    SpeciesNameError,
    evolved_matrix,
    parse_fasta,
    random_matrix,
    restrict_columns,
    subsample_species,
    write_fasta,
)
from parsicompact.parsimony import group_width

ROWS = [("a", "AC"), ("b", "AG"), ("c", "TC")]


def test_from_rows_alphabets_sorted_per_column():
    m = CharacterMatrix.from_rows(ROWS)
    assert m.n == 3 and m.m == 2
    assert m.alphabets == (("A", "T"), ("C", "G"))
    assert m.values["a"] == (0, 0)
    assert m.values["c"] == (1, 0)


def test_from_rows_rejects_bad_input():
    with pytest.raises(DuplicateSpeciesError):
        CharacterMatrix.from_rows([("a", "A"), ("a", "C")])
    with pytest.raises(LengthMismatchError):
        CharacterMatrix.from_rows([("a", "AC"), ("b", "A")])
    with pytest.raises(EmptyInputError):
        CharacterMatrix.from_rows([])
    with pytest.raises(EmptyInputError):
        CharacterMatrix.from_rows([("a", ""), ("b", "")])
    with pytest.raises(EmptyInputError):
        CharacterMatrix.from_rows([("a", "A"), ("", "C")])
    # A FASTA header cannot carry whitespace: ">a b" reads back as "a".
    for name in ("a b", " ", "a\tb"):
        with pytest.raises(SpeciesNameError):
            CharacterMatrix.from_rows([(name, "A"), ("c", "C")])
    # With a duplicate name and another fault, the other fault is reported.
    pool = [c for c in map(chr, range(33, 200)) if c not in set("-.?*nNxX")]
    wide = [(f"sp{i}", s) for i, s in enumerate(pool[:65])] + [("sp0", "A")]
    with pytest.raises(
        AlphabetTooLargeError, match="^character 0: 65 states exceed the 64-bit flag word$"
    ):
        CharacterMatrix.from_rows(wide)
    with pytest.raises(
        AmbiguousSymbolError,
        match=r"^record 'a' contains gap/ambiguity symbol\(s\) \['-'\]; pass allow_ambiguity",
    ):
        CharacterMatrix.from_rows([("a", "A-"), ("a", "AC")])
    with pytest.raises(LengthMismatchError, match="^record 'a' has length 1, expected 2$"):
        CharacterMatrix.from_rows([("a", "AC"), ("a", "A")])


def test_ambiguity_symbols_rejected_by_default():
    with pytest.raises(AmbiguousSymbolError):
        CharacterMatrix.from_rows([("a", "A-"), ("b", "AC")])
    m = CharacterMatrix.from_rows([("a", "A-"), ("b", "AC")], allow_ambiguity=True)
    assert m.alphabets[1] == ("-", "C")


def test_alphabet_cap():
    pool = [c for c in map(chr, range(33, 200)) if c not in set("-.?*nNxX")]
    rows = [(f"sp{i}", s) for i, s in enumerate(pool[:65])]
    with pytest.raises(AlphabetTooLargeError):
        CharacterMatrix.from_rows(rows)
    assert len(CharacterMatrix.from_rows(rows[:64]).alphabets[0]) == 64


def test_parse_fasta_multiline_and_blank_lines():
    text = ">a first species\nAC\nGT\n\n>b\nACGA\n"
    m = parse_fasta(io.StringIO(text))
    assert m.names == ("a", "b")
    assert dict(m.rows())["a"] == "ACGT"
    # whitespace inside a sequence line is not a state
    for spaced in (">a\nAC GT\n>b\nACGA\n", ">a\nA\tC\n G T \n>b\nACGA\n"):
        assert parse_fasta(spaced) == m


def test_parse_fasta_from_string_and_errors():
    assert parse_fasta(">a\nA\n>b\nC\n").n == 2
    with pytest.raises(EmptyInputError):
        parse_fasta("")
    with pytest.raises(DuplicateSpeciesError):
        parse_fasta(">a\nA\n>a\nC\n")
    with pytest.raises(EmptyInputError):
        parse_fasta(">\nA\n>b\nC\n")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    states=st.integers(2, 5),
    seed=st.integers(0, 10**6),
)
def test_fasta_round_trip(n, m, states, seed):
    matrix = random_matrix(n, m, states, seed)
    again = parse_fasta(write_fasta(matrix))
    assert again == matrix and hash(again) == hash(matrix)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    states=st.integers(2, 5),
    seed=st.integers(0, 10**6),
)
def test_packed_layout_invariants(n, m, states, seed):
    # The matrix keeps states as indices; only the scorer packs them.
    matrix = random_matrix(n, m, states, seed)
    assert set(vars(matrix)) == {"names", "alphabets", "values", "n", "m"}
    scorer = Scorer(matrix)
    g = group_width(matrix)
    assert g & (g - 1) == 0
    assert g >= max(len(a) for a in matrix.alphabets)
    assert g < 2 * max(len(a) for a in matrix.alphabets)
    for name in matrix.names:
        packed = scorer.vmask[name]
        for c, state in enumerate(matrix.values[name]):
            group = (packed >> (c * g)) & ((1 << g) - 1)
            assert group == 1 << state
        assert packed >> (m * g) == 0
    assert scorer.alpha == sum(
        ((1 << len(a)) - 1) << (c * g) for c, a in enumerate(matrix.alphabets)
    )


def test_restrict_columns():
    m = random_matrix(4, 6, 3, seed=1)
    r = restrict_columns(m, 2)
    assert r.m == 2 and r.n == 4
    assert dict(r.rows()) == {k: v[:2] for k, v in m.rows()}
    for bad in (0, 7, -1):
        with pytest.raises(BadColumnRangeError):
            restrict_columns(m, bad)


def test_subsample_species():
    m = random_matrix(8, 4, 3, seed=2)
    s1 = subsample_species(m, 5, seed=9)
    s2 = subsample_species(m, 5, seed=9)
    assert s1 == s2 and s1.n == 5
    assert set(s1.names) <= set(m.names)
    rows = dict(m.rows())
    assert all(seq == rows[name] for name, seq in s1.rows())
    assert subsample_species(m, 8, seed=0).n == 8
    for bad in (0, 9):
        with pytest.raises(BadSubsetSizeError):
            subsample_species(m, bad, seed=0)


def test_generators_deterministic_and_shaped():
    for maker in (random_matrix, evolved_matrix):
        a = maker(6, 10, 4, seed=3)
        b = maker(6, 10, 4, seed=3)
        c = maker(6, 10, 4, seed=4)
        assert a == b
        assert a != c
        assert a.n == 6 and a.m == 10
        assert all(len(alpha) <= 4 for alpha in a.alphabets)
        assert a.names == tuple(f"S{i}" for i in range(1, 7))


@pytest.mark.parametrize("states", [0, -1, 25, 30, 1, 24])
@pytest.mark.parametrize("maker", [random_matrix, evolved_matrix])
def test_generators_take_1_to_24_states(maker, states):
    if not 1 <= states <= 24:
        with pytest.raises(ValueError, match=f"states must be in 1..24, got {states}"):
            maker(5, 40, states, seed=0)
        return
    matrix = maker(5, 40, states, seed=0)
    assert all(len(alpha) <= states for alpha in matrix.alphabets)


def test_evolved_matrix_is_clumpier_than_uniform():
    # Shared descent should leave fewer distinct states per column on average.
    rng = random.Random(0)
    seeds = [rng.randrange(1 << 30) for _ in range(20)]
    ev = sum(
        len(a) for s in seeds for a in evolved_matrix(8, 12, 4, seed=s).alphabets
    )
    un = sum(
        len(a) for s in seeds for a in random_matrix(8, 12, 4, seed=s).alphabets
    )
    assert ev < un
