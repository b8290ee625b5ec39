"""Karlin–Altschul statistics: λ, K, H, effective lengths, E-values.

``karlin_params`` reproduces NCBI's ungapped parameter computation:

- λ solves  Σ_s p(s)·e^{λs} = 1  (Newton with a safe bracket), where
  p(s) is the score distribution induced by the residue background
  frequencies and the scoring matrix;
- H = λ · Σ_s s·p(s)·e^{λs}  (relative entropy, nats/aligned pair);
- K via the Karlin–Dembo series over i-fold convolutions of p(s),
  K = d·λ·e^{−2Σ} / (H·(1 − e^{−λd})),
  Σ = Σ_{i≥1} (1/i)·[ Σ_{j<0} P_i(j)e^{λj} + Σ_{j≥0} P_i(j) ],
  with d the gcd of attained scores — the same series NCBI's
  ``BlastKarlinLHtoK`` evaluates.

Gapped parameters are not analytically derivable; like NCBI, we keep a
table of empirically determined values for the supported (matrix,
gap-open, gap-extend) combinations and fall back to the computed
ungapped values otherwise (conservative and documented).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, NUM_STD_AA, NUM_STD_NT

#: Robinson & Robinson (1991) amino-acid background frequencies, the
#: standard BLAST composition, in PROTEIN alphabet order (20 std AAs).
ROBINSON_FREQS = np.array(
    [
        0.07805,  # A
        0.05129,  # R
        0.04487,  # N
        0.05364,  # D
        0.01925,  # C
        0.04264,  # Q
        0.06295,  # E
        0.07377,  # G
        0.02199,  # H
        0.05142,  # I
        0.09019,  # L
        0.05744,  # K
        0.02243,  # M
        0.03856,  # F
        0.05203,  # P
        0.07120,  # S
        0.05841,  # T
        0.01330,  # W
        0.03216,  # Y
        0.06441,  # V
    ],
    dtype=np.float64,
)

UNIFORM_DNA_FREQS = np.full(4, 0.25, dtype=np.float64)


@dataclass(frozen=True)
class KarlinParams:
    """Statistical parameters of a scoring system."""

    lam: float  # λ, nats per score unit
    K: float
    H: float  # relative entropy, nats per aligned pair
    gapped: bool = False

    @property
    def log_k(self) -> float:
        return math.log(self.K)

    def bit_score(self, raw_score: int | float) -> float:
        """Normalized (bit) score of a raw alignment score."""
        return (self.lam * raw_score - self.log_k) / math.log(2.0)

    def evalue(self, raw_score: int | float, search_space: float) -> float:
        """Expected number of HSPs with at least this score."""
        return search_space * math.exp(-self.lam * raw_score + self.log_k)

    def raw_score_for_evalue(self, evalue: float, search_space: float) -> float:
        """Raw score at which the E-value equals ``evalue``."""
        return (math.log(self.K * search_space) - math.log(evalue)) / self.lam


class KarlinError(ValueError):
    """The scoring system admits no valid Karlin–Altschul parameters."""


def score_distribution(
    matrix: np.ndarray,
    freqs: np.ndarray,
    nstd: int,
) -> tuple[np.ndarray, int]:
    """Score pmf induced by ``freqs`` over the first ``nstd`` residues.

    Returns ``(probs, low)`` where ``probs[k]`` is P(score == low + k).
    """
    sub = matrix[:nstd, :nstd]
    low = int(sub.min())
    high = int(sub.max())
    if high <= 0:
        raise KarlinError("matrix has no positive score")
    probs = np.zeros(high - low + 1, dtype=np.float64)
    outer = np.outer(freqs, freqs)
    for k in range(probs.size):
        probs[k] = outer[sub == (low + k)].sum()
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-6):
        probs /= total
    expected = float(np.dot(probs, np.arange(low, high + 1)))
    if expected >= 0:
        raise KarlinError(
            f"expected score {expected:.4f} is non-negative; "
            "local alignment statistics are undefined"
        )
    return probs, low


def _solve_lambda(probs: np.ndarray, low: int) -> float:
    """Solve Σ p(s) e^{λs} = 1 for λ > 0 (monotone in λ beyond minimum)."""
    scores = np.arange(low, low + probs.size, dtype=np.float64)

    def phi(lam: float) -> float:
        return float(np.dot(probs, np.exp(lam * scores))) - 1.0

    # Bracket: phi(0) = 0 with phi'(0) = E[s] < 0, so phi dips below zero
    # then rises; find hi with phi(hi) > 0.
    hi = 0.5
    while phi(hi) < 0:
        hi *= 2.0
        if hi > 1e4:
            raise KarlinError("failed to bracket lambda")
    lo = 1e-10
    # Bisection to solid precision, then a few Newton polish steps.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    lam = 0.5 * (lo + hi)
    for _ in range(5):
        e = np.exp(lam * scores)
        f = float(np.dot(probs, e)) - 1.0
        fp = float(np.dot(probs, scores * e))
        if fp <= 0:
            break
        step = f / fp
        lam -= step
        if abs(step) < 1e-15:
            break
    if lam <= 0:
        raise KarlinError("lambda did not converge to a positive value")
    return float(lam)


def _entropy_h(probs: np.ndarray, low: int, lam: float) -> float:
    scores = np.arange(low, low + probs.size, dtype=np.float64)
    return float(lam * np.dot(probs, scores * np.exp(lam * scores)))


def _score_gcd(probs: np.ndarray, low: int) -> int:
    g = 0
    for k, p in enumerate(probs):
        if p > 0:
            g = math.gcd(g, abs(low + k))
    return max(g, 1)


def _karlin_k(probs: np.ndarray, low: int, lam: float, h: float,
              max_iter: int = 128, tol: float = 1e-12) -> float:
    """Karlin–Dembo series for K via i-fold convolutions of the pmf."""
    d = _score_gcd(probs, low)
    sigma = 0.0
    conv = probs.copy()
    conv_low = low
    for i in range(1, max_iter + 1):
        scores = np.arange(conv_low, conv_low + conv.size, dtype=np.float64)
        neg = scores < 0
        inner = float(np.dot(conv[neg], np.exp(lam * scores[neg])))
        inner += float(conv[~neg].sum())
        term = inner / i
        sigma += term
        if term < tol * max(sigma, 1.0):
            break
        conv = np.convolve(conv, probs)
        conv_low += low
        # Trim numerically dead mass to keep convolutions cheap.
        nz = np.nonzero(conv > 1e-300)[0]
        if nz.size:
            conv_low += int(nz[0])
            conv = conv[nz[0] : nz[-1] + 1]
    k = d * lam * math.exp(-2.0 * sigma) / (h * (1.0 - math.exp(-lam * d)))
    if not (0 < k < 1):
        raise KarlinError(f"computed K={k} out of range")
    return float(k)


#: ``karlin_params`` results by (matrix, composition): every engine of a
#: run asks for the same one or two, and the K series is the slow part.
_PARAMS_MEMO: dict[tuple, KarlinParams] = {}


def karlin_params(
    matrix: np.ndarray,
    freqs: np.ndarray | None = None,
    *,
    alphabet=PROTEIN,
) -> KarlinParams:
    """Compute ungapped λ, K, H for a scoring matrix and composition."""
    if alphabet is PROTEIN:
        nstd = NUM_STD_AA
        f = ROBINSON_FREQS if freqs is None else np.asarray(freqs, dtype=float)
    elif alphabet is DNA:
        nstd = NUM_STD_NT
        f = UNIFORM_DNA_FREQS if freqs is None else np.asarray(freqs, dtype=float)
    else:
        raise KarlinError(f"unsupported alphabet {alphabet.name}")
    if f.shape != (nstd,):
        raise KarlinError(f"frequencies must have shape ({nstd},)")
    f = f / f.sum()
    matrix = np.asarray(matrix)
    key = (matrix.shape, matrix.dtype.str, matrix.tobytes(), f.tobytes())
    params = _PARAMS_MEMO.get(key)
    if params is None:
        probs, low = score_distribution(matrix, f, nstd)
        lam = _solve_lambda(probs, low)
        h = _entropy_h(probs, low, lam)
        k = _karlin_k(probs, low, lam, h)
        params = KarlinParams(lam=lam, K=k, H=h, gapped=False)
        if len(_PARAMS_MEMO) >= 64:
            _PARAMS_MEMO.clear()
        _PARAMS_MEMO[key] = params
    return params


#: Empirically determined gapped parameters, as NCBI tabulates them:
#: (matrix, gap_open, gap_extend) -> (λ, K, H).
GAPPED_TABLE: dict[tuple[str, int, int], tuple[float, float, float]] = {
    ("BLOSUM62", 11, 1): (0.267, 0.0410, 0.1400),
    ("BLOSUM62", 10, 1): (0.2430, 0.0240, 0.1000),
    ("BLOSUM62", 12, 1): (0.2830, 0.0660, 0.2000),
}


def gapped_params(
    matrix_name: str,
    gap_open: int,
    gap_extend: int,
    *,
    ungapped: KarlinParams | None = None,
) -> KarlinParams:
    """Gapped λ, K, H from the empirical table (NCBI practice).

    Unknown combinations fall back to the supplied ungapped parameters —
    conservative (reported E-values are then lower bounds on
    significance) and clearly better than refusing to search.
    """
    key = (matrix_name.upper(), int(gap_open), int(gap_extend))
    if key in GAPPED_TABLE:
        lam, k, h = GAPPED_TABLE[key]
        return KarlinParams(lam=lam, K=k, H=h, gapped=True)
    if ungapped is not None:
        return KarlinParams(
            lam=ungapped.lam, K=ungapped.K, H=ungapped.H, gapped=True
        )
    raise KarlinError(
        f"no gapped parameters for {key}; supply ungapped= for a fallback"
    )


def length_adjustment(
    params: KarlinParams,
    query_length: int,
    db_length: int,
    db_num_seqs: int,
    *,
    iterations: int = 5,
) -> int:
    """NCBI-style iterative length adjustment (edge-effect correction)."""
    if query_length <= 0 or db_length <= 0 or db_num_seqs <= 0:
        raise ValueError("lengths and sequence count must be positive")
    ell = 0.0
    kmn_floor = 1.0
    for _ in range(iterations):
        m_eff = max(query_length - ell, 1.0)
        n_eff = max(db_length - db_num_seqs * ell, db_num_seqs * 1.0)
        kmn = max(params.K * m_eff * n_eff, kmn_floor)
        ell = math.log(kmn) / params.H
        ell = min(ell, query_length - 1, db_length / db_num_seqs - 1)
        ell = max(ell, 0.0)
    return int(ell)


def effective_search_space(
    params: KarlinParams,
    query_length: int,
    db_length: int,
    db_num_seqs: int,
) -> float:
    """Effective m'·n' used in database-search E-values."""
    ell = length_adjustment(params, query_length, db_length, db_num_seqs)
    m_eff = max(query_length - ell, 1)
    n_eff = max(db_length - db_num_seqs * ell, db_num_seqs)
    return float(m_eff) * float(n_eff)
