"""repro.blast — a from-scratch BLAST engine.

Implements the full classic BLAST pipeline (Altschul et al. 1990, with
the two-hit and gapped-extension refinements of BLAST 2.0):

- FASTA parsing (:mod:`repro.blast.fasta`),
- residue alphabets and encodings (:mod:`repro.blast.alphabet`),
- scoring matrices (:mod:`repro.blast.matrices`),
- Karlin–Altschul statistics: λ, K, H, effective lengths, E-values
  (:mod:`repro.blast.karlin`),
- neighbourhood-word seeding with the two-hit heuristic
  (:mod:`repro.blast.seeding`),
- X-drop ungapped and gapped extensions with traceback
  (:mod:`repro.blast.extend`),
- HSP bookkeeping and culling (:mod:`repro.blast.hsp`),
- the search driver (:mod:`repro.blast.engine`) — one kernel path; the
  per-subject scalar kernel the tests hold it bit-identical to lives in
  ``reference.py`` beside it and is imported by no module of the package,
- ``formatdb``-style binary databases with volumes
  (:mod:`repro.blast.formatdb`),
- the NCBI-flavoured text report writer (:mod:`repro.blast.output`).

The report writer is deliberately factored so that per-alignment blocks
can be produced *independently of the rest of the report* with exactly
known byte sizes — that is the property pioBLAST's offset-computed
collective output relies on.
"""

from repro._lazy import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    "alphabet": ("PROTEIN", "DNA", "Alphabet"),
    "fasta": ("SeqRecord", "parse_fasta", "write_fasta"),
    "matrices": ("blosum62", "dna_matrix", "get_matrix"),
    "karlin": ("KarlinParams", "karlin_params", "gapped_params"),
    "hsp": ("HSP", "Alignment"),
    "engine": (
        "BlastSearch", "SearchParams", "blastp_search", "blastn_search",
    ),
    "formatdb": (
        "FormattedDatabase", "DatabaseIndex", "DatabaseVolume", "formatdb",
    ),
    "output": ("ReportWriter", "format_evalue"),
    "translate": ("six_frame_translations", "tblastn_search", "translate"),
})
