"""Residue alphabets and integer encodings.

Sequences are encoded as ``uint8`` NumPy arrays indexing into the score
matrices.  The protein alphabet follows NCBIstdaa ordering conventions
for the 20 standard residues plus the ambiguity codes BLAST tolerates
(B, Z, X and the stop ``*``); DNA covers ACGT plus N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Alphabet:
    """An ordered residue alphabet with encode/decode tables."""

    name: str
    letters: str  # index -> letter
    wildcard: str  # letter unknown input maps to
    _to_code: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    # 256-entry byte tables for the ASCII fast paths: byte -> code
    # (case folded, unknown -> wildcard) and code -> letter byte, where
    # a code outside the alphabet maps to a non-ASCII byte that the
    # ASCII decode rejects.
    _encode_table: bytes = field(default=b"", repr=False, compare=False)
    _decode_table: bytes = field(default=b"", repr=False, compare=False)

    def __post_init__(self) -> None:
        table = {c: i for i, c in enumerate(self.letters)}
        if self.wildcard not in table:
            raise ValueError(f"wildcard {self.wildcard!r} not in alphabet")
        object.__setattr__(self, "_to_code", table)
        if self.letters.isascii():
            wc = table[self.wildcard]
            object.__setattr__(
                self,
                "_encode_table",
                bytes(table.get(chr(b).upper(), wc) for b in range(128))
                + bytes(128),
            )
            object.__setattr__(
                self,
                "_decode_table",
                self.letters.encode("ascii").ljust(256, b"\xff"),
            )

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def wildcard_code(self) -> int:
        return self._to_code[self.wildcard]

    def encode(self, seq: str) -> np.ndarray:
        """Encode a residue string to codes; unknown letters → wildcard."""
        if self._encode_table and seq.isascii():
            # One C pass: an ASCII letter upper-cases to one ASCII
            # letter, so the table folds case and the length is kept.
            return np.frombuffer(
                seq.encode("ascii").translate(self._encode_table),
                dtype=np.uint8,
            ).copy()
        wc = self.wildcard_code
        # Upper-case first: some characters expand under .upper()
        # (e.g. 'ß' → 'SS'), so the length must be taken afterwards.
        up = seq.upper()
        out = np.empty(len(up), dtype=np.uint8)
        table = self._to_code
        for i, ch in enumerate(up):
            out[i] = table.get(ch, wc)
        return out

    def decode(self, codes: np.ndarray | bytes) -> str:
        """Decode codes back to a residue string."""
        if isinstance(codes, (bytes, bytearray, memoryview)):
            codes = np.frombuffer(bytes(codes), dtype=np.uint8)
        if self._decode_table and getattr(codes, "dtype", None) == np.uint8:
            raw = codes.tobytes().translate(self._decode_table)
            try:
                return raw.decode("ascii")
            except UnicodeDecodeError:
                raise IndexError("code outside the alphabet") from None
        return "".join(self.letters[int(c)] for c in codes)

    def is_valid_strict(self, seq: str) -> bool:
        """True if every letter is in the alphabet (no wildcard mapping)."""
        return all(ch in self._to_code for ch in seq.upper())


# 20 standard residues first (word seeding enumerates only these),
# then ambiguity codes.  Index order here is the matrix row order.
PROTEIN = Alphabet(
    name="protein",
    letters="ARNDCQEGHILKMFPSTWYVBZX*",
    wildcard="X",
)

#: Number of unambiguous protein residues (word enumeration space).
NUM_STD_AA = 20

DNA = Alphabet(
    name="dna",
    letters="ACGTN",
    wildcard="N",
)

#: Number of unambiguous nucleotides.
NUM_STD_NT = 4


def alphabet_for_program(program: str) -> Alphabet:
    """Alphabet used by a BLAST program name ('blastp' or 'blastn')."""
    if program == "blastp":
        return PROTEIN
    if program == "blastn":
        return DNA
    raise ValueError(f"unsupported program {program!r}")
