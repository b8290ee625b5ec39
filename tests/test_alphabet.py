"""Unit tests for residue alphabets and encodings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blast.alphabet import (
    DNA,
    NUM_STD_AA,
    NUM_STD_NT,
    PROTEIN,
    alphabet_for_program,
)


class TestProteinAlphabet:
    def test_has_24_letters(self):
        assert len(PROTEIN) == 24

    def test_standard_residues_come_first(self):
        assert PROTEIN.letters[:NUM_STD_AA] == "ARNDCQEGHILKMFPSTWYV"

    def test_ambiguity_codes_present(self):
        for ch in "BZX*":
            assert ch in PROTEIN.letters

    def test_encode_known_residues(self):
        codes = PROTEIN.encode("ARN")
        assert list(codes) == [0, 1, 2]

    def test_encode_is_case_insensitive(self):
        assert np.array_equal(PROTEIN.encode("mkv"), PROTEIN.encode("MKV"))

    def test_unknown_letter_maps_to_wildcard(self):
        assert PROTEIN.encode("J")[0] == PROTEIN.wildcard_code

    def test_decode_round_trip(self):
        s = "MKVLAWYRNDCQEGHISTPF"
        assert PROTEIN.decode(PROTEIN.encode(s)) == s

    def test_decode_accepts_bytes(self):
        assert PROTEIN.decode(bytes([0, 1, 2])) == "ARN"

    def test_strict_validation(self):
        assert PROTEIN.is_valid_strict("MKVX*BZ")
        assert not PROTEIN.is_valid_strict("MKO")  # O not in alphabet

    def test_encode_dtype_and_shape(self):
        codes = PROTEIN.encode("MKV")
        assert codes.dtype == np.uint8
        assert codes.shape == (3,)

    def test_empty_sequence(self):
        assert len(PROTEIN.encode("")) == 0
        assert PROTEIN.decode(np.array([], dtype=np.uint8)) == ""


class TestDnaAlphabet:
    def test_letters(self):
        assert DNA.letters == "ACGTN"
        assert NUM_STD_NT == 4

    def test_wildcard_is_n(self):
        assert DNA.wildcard == "N"
        assert DNA.encode("X")[0] == DNA.wildcard_code

    def test_round_trip(self):
        s = "ACGTACGTNN"
        assert DNA.decode(DNA.encode(s)) == s


class TestAlphabetForProgram:
    def test_blastp(self):
        assert alphabet_for_program("blastp") is PROTEIN

    def test_blastn(self):
        assert alphabet_for_program("blastn") is DNA

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            alphabet_for_program("tblastx")


def loop_encode(alphabet, seq):
    """The per-character reference ``Alphabet.encode`` must equal."""
    table = {c: i for i, c in enumerate(alphabet.letters)}
    return [table.get(ch, alphabet.wildcard_code) for ch in seq.upper()]


class TestEncodeBranches:
    @pytest.mark.parametrize("alphabet", [PROTEIN, DNA])
    def test_every_letter_round_trips_in_both_cases(self, alphabet):
        s = alphabet.letters
        assert list(alphabet.encode(s)) == list(range(len(s)))
        assert list(alphabet.encode(s.lower())) == list(range(len(s)))
        assert alphabet.decode(alphabet.encode(s.lower())) == s
        assert alphabet.decode(bytes(range(len(s)))) == s

    def test_ascii_unknowns_map_to_wildcard(self):
        codes = PROTEIN.encode("M-k 1J\n")
        assert list(codes) == loop_encode(PROTEIN, "M-k 1J\n")
        assert list(codes[[1, 3, 4, 5, 6]]) == [PROTEIN.wildcard_code] * 5

    def test_ascii_result_is_a_fresh_writable_array(self):
        codes = PROTEIN.encode("MKV")
        codes[0] = 0
        assert list(PROTEIN.encode("MKV")) == loop_encode(PROTEIN, "MKV")

    def test_non_ascii_takes_the_length_after_upper(self):
        # 'ß'.upper() == 'SS': two residues, not one wildcard
        assert "ß".upper() == "SS"
        assert list(PROTEIN.encode("aßk")) == list(PROTEIN.encode("ASSK"))

    def test_non_ascii_unknown_maps_to_wildcard(self):
        assert list(PROTEIN.encode("MéK")) == [
            PROTEIN.encode("M")[0], PROTEIN.wildcard_code,
            PROTEIN.encode("K")[0],
        ]

    def test_decode_other_dtypes_and_bad_codes(self):
        assert PROTEIN.decode(np.array([0, 1, 2], dtype=np.int64)) == "ARN"
        with pytest.raises(IndexError):
            PROTEIN.decode(np.array([len(PROTEIN)], dtype=np.uint8))
        with pytest.raises(IndexError):
            PROTEIN.decode(np.array([len(PROTEIN)], dtype=np.int64))

    @pytest.mark.parametrize("alphabet", [PROTEIN, DNA])
    @pytest.mark.parametrize("bad", [None, 127, 128, 255])
    def test_out_of_range_code_raises_index_error(self, alphabet, bad):
        # the byte table maps every code past the alphabet to a byte the
        # ASCII decode rejects, wherever in the sequence it sits
        bad = len(alphabet) if bad is None else bad
        codes = np.array([0, 1, bad, 0], dtype=np.uint8)
        with pytest.raises(IndexError, match="outside the alphabet"):
            alphabet.decode(codes)
        with pytest.raises(IndexError, match="outside the alphabet"):
            alphabet.decode(codes.tobytes())
        assert alphabet.decode(codes[:2]) == alphabet.letters[:2]


@given(st.text(max_size=60))
def test_encode_equals_the_per_character_loop(s):
    assert list(PROTEIN.encode(s)) == loop_encode(PROTEIN, s)
    assert list(DNA.encode(s)) == loop_encode(DNA, s)


@given(st.text(alphabet="ARNDCQEGHILKMFPSTWYVBZX*", max_size=200))
def test_protein_round_trip_property(s):
    assert PROTEIN.decode(PROTEIN.encode(s)) == s.upper()


@given(st.text(alphabet="ACGTN", max_size=200))
def test_dna_round_trip_property(s):
    assert DNA.decode(DNA.encode(s)) == s.upper()


@given(st.text(max_size=100))
def test_encode_never_fails_and_stays_in_range(s):
    codes = PROTEIN.encode(s)
    assert (codes < len(PROTEIN)).all() if len(codes) else True
