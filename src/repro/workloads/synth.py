"""Seeded synthetic sequence databases with planted homology.

Sequences are drawn from the standard background composition
(Robinson–Robinson for protein, uniform for DNA).  A fraction of the
database is organised into *families*: each family has a founder and
``family_size - 1`` mutated copies (point substitutions plus small
indels).  Queries sampled from the database therefore find their family
members — giving the hit-dense, output-heavy behaviour of searching nr
with queries sampled from nr, which is exactly the paper's workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, Alphabet
from repro.blast.fasta import SeqRecord
from repro.blast.karlin import ROBINSON_FREQS


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic database."""

    num_sequences: int = 500
    mean_length: int = 300
    length_jitter: float = 0.35  # +- fraction of mean
    family_fraction: float = 0.6  # fraction of sequences inside families
    family_size: int = 5
    mutation_rate: float = 0.15  # substitutions per residue within family
    indel_rate: float = 0.01  # indel events per residue within family
    seed: int = 20050405  # IPDPS'05 started April 4 2005

    def __post_init__(self) -> None:
        if self.num_sequences < 1:
            raise ValueError("num_sequences must be >= 1")
        if self.mean_length < 20:
            raise ValueError("mean_length must be >= 20")
        if not (0.0 <= self.family_fraction <= 1.0):
            raise ValueError("family_fraction must be in [0, 1]")
        if self.family_size < 2:
            raise ValueError("family_size must be >= 2")


def _random_length(rng: np.random.Generator, spec: SynthSpec) -> int:
    lo = max(20, int(spec.mean_length * (1 - spec.length_jitter)))
    hi = int(spec.mean_length * (1 + spec.length_jitter))
    return int(rng.integers(lo, hi + 1))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised cumulative distribution ``Generator.choice``
    searches for ``p=probs``."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, k: int) -> np.ndarray:
    """``k`` codes drawn from ``cdf``.

    ``rng.choice(len(cdf), size=k, p=probs)`` without its per-call
    validation: the same ``k`` uniforms searched in the same cumulative
    distribution, so the same codes and the same generator state.
    """
    return cdf.searchsorted(rng.random(k), side="right").astype(np.uint8)


def mutate_sequence(
    codes: np.ndarray,
    rng: np.random.Generator,
    *,
    nstd: int,
    probs: np.ndarray,
    mutation_rate: float,
    indel_rate: float,
) -> np.ndarray:
    """Point-substitute and indel a sequence (family member generator)."""
    if len(probs) != nstd:
        raise ValueError(f"probs has {len(probs)} entries, nstd is {nstd}")
    return _mutate(codes, rng, _cdf(probs), mutation_rate, indel_rate)


def _mutate(
    codes: np.ndarray,
    rng: np.random.Generator,
    cdf: np.ndarray,
    mutation_rate: float,
    indel_rate: float,
) -> np.ndarray:
    out = codes.copy()
    n = len(out)
    nsub = rng.binomial(n, min(mutation_rate, 1.0))
    if nsub:
        idx = rng.choice(n, size=nsub, replace=False)
        out[idx] = _draw(rng, cdf, nsub)
    nindel = rng.binomial(n, min(indel_rate, 1.0))
    for _ in range(nindel):
        pos = int(rng.integers(0, len(out)))
        length = int(rng.integers(1, 4))
        if rng.random() < 0.5 and len(out) > length + 20:
            out = np.concatenate([out[:pos], out[pos + length :]])
        else:
            ins = _draw(rng, cdf, length)
            out = np.concatenate([out[:pos], ins, out[pos:]])
    return out


def _synthesize(
    spec: SynthSpec, alphabet: Alphabet, probs: np.ndarray, tag: str,
) -> list[SeqRecord]:
    rng = np.random.default_rng(spec.seed)
    cdf = _cdf(probs)
    records: list[SeqRecord] = []
    n = spec.num_sequences
    n_family_seqs = int(n * spec.family_fraction)
    n_families = max(n_family_seqs // spec.family_size, 0)
    sid = 0

    def emit(codes: np.ndarray, note: str) -> None:
        nonlocal sid
        defline = f"synth|{tag}{sid:07d}| {note}"
        records.append(SeqRecord(defline, alphabet.decode(codes)))
        sid += 1

    for fam in range(n_families):
        founder = _draw(rng, cdf, _random_length(rng, spec))
        emit(founder, f"family {fam} founder")
        for m in range(spec.family_size - 1):
            if sid >= n:
                break
            member = _mutate(
                founder, rng, cdf, spec.mutation_rate, spec.indel_rate
            )
            emit(member, f"family {fam} member {m + 1}")
        if sid >= n:
            break
    while sid < n:
        emit(_draw(rng, cdf, _random_length(rng, spec)), "singleton")
    return records


def synthesize_protein_records(spec: SynthSpec | None = None) -> list[SeqRecord]:
    """A synthetic protein database (nr stand-in)."""
    s = spec if spec is not None else SynthSpec()
    return _synthesize(s, PROTEIN, ROBINSON_FREQS / ROBINSON_FREQS.sum(), "P")


def synthesize_dna_records(spec: SynthSpec | None = None) -> list[SeqRecord]:
    """A synthetic DNA database (nt stand-in)."""
    s = spec if spec is not None else SynthSpec()
    return _synthesize(s, DNA, np.full(4, 0.25), "N")
