"""Coset-coding wiretap codes with exact and Monte Carlo equivocation.

A code is a full-rank parity-check matrix h of shape (n - k_coarse) x n whose
syndrome splits into a pinned-zero block (membership in the fine code Bob can
decode) and a message block.  Encoding a message s picks a uniformly random
solution of x @ h.T = [0 || s]; messages therefore index disjoint cosets of
the secrecy subcode (the kernel of h) inside the fine code.  Each code keeps
k_fine generator words, the kernel basis then one particular solution per
message bit, so fine-code word i = s * 2^k_coarse + c is the XOR of the
generators that the bits of i select: the encoder draws the coset index c and
XORs, and the fine-code table is built by doubling over the same generators.

Equivocation H(S|Z)/K against a BSC eavesdropper is computed exactly by
collapsing the 2^n output space onto syndrome classes: the noise distribution
is pushed through the syndrome map coordinate by coordinate, in syndromes
relabelled by the parity-check matrix's elimination so that a pivot column
only doubles the support.  That costs about 2^(n - k_coarse) times (non-pivot
columns + a few passes) whatever n is, so exact is budgeted by syndrome rows.
The Monte Carlo estimator samples outputs and evaluates the same posterior by
direct enumeration of the fine code: the likelihood of each fine-code word is
read from a table of the n + 1 BSC weights p^d (1-p)^(n-d), built once per
call, into two working buffers of a fixed word budget, also allocated once per
call and refilled in place by each batch of samples, or, past the budget, by
each run of whole messages of one sample.  Its samples are drawn in
blocks: one stream call per block, its message, coset and noise bits sliced
in numpy, with prng's Bernoulli threshold applied to every noise chunk at once;
each sample gets the bits a draw at a time would give it.

Bob's ML decoder is syndrome decoding: a table of minimal-weight coset
leaders of the fine code, indexed by the zero-block syndrome and built once
per code, turns each decode into one lookup, whatever k_fine is.  A code whose
table would hold more syndromes than the fine code has words, would need more
than MAX_LEADER_PATTERNS error patterns, or has n > 63, enumerates the fine
code instead, as Monte Carlo does, under that walk's k_fine and n <= 63 budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import Bsc, _check_crossover, _check_degraded, _check_variance
from .gf2 import (
    BitMatrix, BitVector, Elimination, _header_counts, random_full_rank, row_parities, xor_rows
)
from .infometrics import _entropy_bits, binary_entropy
from .prng import _bernoulli_threshold

__all__ = [
    "WiretapCodeParams",
    "CosetCode",
    "EquivocationReport",
    "EnumerationBudgetError",
    "params_from_channel",
    "random_coset_code",
    "encode",
    "decode_ml",
    "exact_equivocation",
    "monte_carlo_equivocation",
    "example1_code",
    "uncoded_code",
    "code_to_text",
    "code_from_text",
]

# Enumeration budgets, each checked by the walk it bounds.  Exact equivocation
# walks 2^(n - k_coarse) syndrome classes about (non-pivot columns + a few)
# times on Python-int columns, so only its rows are capped; CosetCode._fine_words
# walks 2^k_fine codewords packed into uint64, so it also needs n <= 63.
MAX_EXACT_ROWS = 24
MAX_ENUM_K_FINE = 20
# Coset-leader table budget: error patterns (uint64, so n <= 63) enumerated by
# weight to fill the syndrome table; past it, decoding enumerates the fine code.
MAX_LEADER_PATTERNS = 1 << 16

# Word budget of the Monte Carlo posterior's two working buffers (distances,
# then likelihoods; 8 bytes a word each): 2^15 >> k_fine samples at a time, or,
# once the fine code alone passes it, one sample in runs of 2^15 >> k_coarse
# whole messages (one message once 2^k_coarse passes it).  Both are allocated
# once per call and together hold 0.5 MiB, or 2^(k_coarse + 4) bytes once one
# message passes the budget, whatever k_fine is.  Each run pays a few numpy
# calls' fixed cost: 600-sample (24, 16, 8) calls, 2 runs a sample, made 6.2k
# samples/s, against 5.8k at 2^14 (4 runs a sample) and 3.9k with a fresh
# uint8-indexed gather per sample.
_POSTERIOR_BATCH_WORDS = 1 << 15

# Bit budget of one Monte Carlo stream draw: a block of 2^16 // (k_fine + 32n)
# samples (84 of a (24, 8, 4) code) is 8 KiB packed and 64 KiB unpacked however
# many samples a call makes.  It is not the posterior batch, which is one
# sample at k_fine >= 15, where a stream call per sample is the cost it saves.
_SAMPLE_BLOCK_BITS = 1 << 16

EQUIVOCATION_CSV_HEADER = "equivocation,rate,error_prob,method,stderr"


class EnumerationBudgetError(RuntimeError):
    """Requested computation exceeds the desk-scale enumeration budget."""


@dataclass(frozen=True)
class WiretapCodeParams:
    """Block length and dimension split of a wiretap code.

    k_fine is the dimension of the Bob-decodable fine code, k_coarse the
    dimension of the secrecy subcode whose cosets carry the k_msg message
    bits, epsilon the rate slack the dimensions were derived with.
    """

    n: int
    k_fine: int
    k_coarse: int
    k_msg: int
    epsilon: float

    def __post_init__(self):
        if not 0 <= self.k_coarse <= self.k_fine <= self.n:
            raise ValueError(
                f"need 0 <= k_coarse <= k_fine <= n, got "
                f"({self.k_coarse}, {self.k_fine}, {self.n})"
            )
        if self.k_msg != self.k_fine - self.k_coarse:
            raise ValueError("k_msg must equal k_fine - k_coarse")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")

    @property
    def rate(self) -> float:
        return self.k_msg / self.n


def params_from_channel(n: int, p: float, p_w: float, epsilon: float) -> WiretapCodeParams:
    """Code dimensions for a BSC(p)/BSC(p_w) pair at slack epsilon.

    k_fine = floor(n(1 - h(p) - 2 eps)) and k_coarse = floor(n(1 - h(p_w) -
    2 eps)), clamped at zero (p_w near 1/2 pushes the formula negative; no
    secrecy subcode redundancy is needed there).  The message dimension is
    k_fine - k_coarse, which keeps the rate at least h(p_w) - h(p) - 3 eps
    for large n.
    """
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n!r}")
    _check_variance("epsilon", epsilon, positive=True)
    _check_degraded(p, p_w)
    k_fine = math.floor(n * (1.0 - binary_entropy(p) - 2.0 * epsilon))
    k_coarse = max(0, math.floor(n * (1.0 - binary_entropy(p_w) - 2.0 * epsilon)))
    if k_fine <= 0:
        raise ValueError(
            f"nonpositive fine-code dimension for n={n}, p={p}, eps={epsilon}"
        )
    return WiretapCodeParams(n, k_fine, k_coarse, k_fine - k_coarse, epsilon)


@dataclass(frozen=True)
class CosetCode:
    """Full-row-rank parity-check matrix h and its syndrome layout: the first
    zero_len syndrome bits are pinned to zero (the fine code), the last
    msg_len carry the message.  Equal codes have equal fields."""

    h: BitMatrix
    zero_len: int
    msg_len: int

    def __post_init__(self):
        if self.zero_len < 0 or self.msg_len < 0:
            raise ValueError("negative syndrome block length")
        if self.zero_len + self.msg_len != self.h.rows:
            raise ValueError(
                f"syndrome layout {self.zero_len}+{self.msg_len} != {self.h.rows} rows"
            )
        if self._elimination.rank != self.h.rows:
            raise ValueError("parity-check matrix must have full row rank")

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def k_coarse(self) -> int:
        return self.h.cols - self.h.rows

    @property
    def k_fine(self) -> int:
        return self.h.cols - self.zero_len

    @property
    def k_msg(self) -> int:
        return self.msg_len

    @property
    def rate(self) -> float:
        return self.msg_len / self.n

    def __repr__(self):
        return (
            f"CosetCode(n={self.n}, k_fine={self.k_fine}, "
            f"k_coarse={self.k_coarse}, k_msg={self.k_msg})"
        )

    @cached_property
    def _elimination(self) -> Elimination:
        """h's elimination: the rank check, the generators and exact's relabelling."""
        return Elimination(self.h)

    @cached_property
    def _generators(self) -> tuple:
        """Fine-code generator words: the kernel basis in order, then the
        particular solution of each unit message [0 || e_j].  Fine-code word
        i = s * 2^k_coarse + c is the XOR of the generators that i selects."""
        elim = self._elimination
        units = (BitVector(self.h.rows, 1 << j) for j in range(self.zero_len, self.h.rows))
        return tuple(v.bits for v in elim.kernel) + tuple(elim.particular(t).bits for t in units)

    @cached_property
    def _columns(self) -> tuple:
        """Column j of h packed as an int: the syndrome of a flip of bit j."""
        return self.h.transpose().row_words

    @cached_property
    def _fine_words(self) -> np.ndarray:
        """All 2^k_fine fine-code words by flat index, doubled over the generators:
        the one walk of the fine code, so the one check of its budget."""
        if self.n > 63 or self.k_fine > MAX_ENUM_K_FINE:
            raise EnumerationBudgetError(
                f"enumeration budget is n <= 63 and k_fine <= {MAX_ENUM_K_FINE}; "
                f"got n={self.n}, k_fine={self.k_fine}"
            )
        words = np.zeros(1 << self.k_fine, dtype=np.uint64)
        for j, g in enumerate(self._generators):
            np.bitwise_xor(words[: 1 << j], np.uint64(g), out=words[1 << j : 2 << j])
        return words

    @cached_property
    def _leader_table(self) -> _LeaderTable | None:
        """Fine-code coset leaders by zero-block syndrome; None past the budget."""
        return _build_leader_table(self)


def random_coset_code(rng, params: WiretapCodeParams) -> CosetCode:
    """Random full-rank parity-check matrix realizing the given dimensions."""
    h = random_full_rank(rng, params.n - params.k_coarse, params.n)
    return CosetCode(h, params.n - params.k_fine, params.k_msg)


def encode(code: CosetCode, s: BitVector, rng) -> BitVector:
    """Uniformly random codeword of the coset carrying message s: the fine-code
    word s * 2^k_coarse + c for c drawn from rng."""
    if s.len != code.msg_len:
        raise ValueError(f"message length {s.len} != {code.msg_len}")
    c = rng.next_bits(code.k_coarse)
    return BitVector(code.n, xor_rows(code._generators, (s.bits << code.k_coarse) | c))


def _lex_key(word: int, n: int) -> tuple:
    """Coordinate-order bit tuple, so min() is the lexicographic smallest."""
    return tuple((word >> i) & 1 for i in range(n))


class _LeaderTable(NamedTuple):
    """Minimal-weight error patterns of the fine code, by zero-block syndrome."""

    leaders: np.ndarray  # one minimal-weight pattern per syndrome (uint64)
    ties: dict  # syndrome -> every minimal-weight pattern, where there are several
    radius: int  # covering radius: the largest leader weight


def _build_leader_table(code: CosetCode) -> _LeaderTable | None:
    """Enumerate error patterns weight by weight until every syndrome is reached.

    A level of weight w + 1 extends each weight-w pattern by one bit above its
    highest set bit, so patterns are kept sorted by that bit and each
    extension is a prefix.  Returns None when the table would hold more
    syndromes than the fine code has words, when n > 63 (patterns are uint64),
    or when the next level would take the pattern count past
    MAX_LEADER_PATTERNS.  It never walks the fine code, so k_fine is free.
    """
    size = 1 << code.zero_len
    if code.n > 63 or code.zero_len > code.k_fine or size > MAX_LEADER_PATTERNS:
        return None
    cols = [col & (size - 1) for col in code._columns]
    words = np.zeros(1, dtype=np.uint64)
    syndromes = np.zeros(1, dtype=np.int32)
    # ends[b]: how many patterns of the current weight have no bit at b or above.
    ends = np.ones(code.n, dtype=np.intp)
    leaders = np.zeros(size, dtype=np.uint64)
    reached = np.zeros(size, dtype=bool)
    ties = {}
    weight = enumerated = 0
    while True:
        fresh = ~reached[syndromes]
        if fresh.any():
            found_syn = syndromes[fresh]
            order = np.argsort(found_syn, kind="stable")
            found_syn, found = found_syn[order], words[fresh][order]
            syn, first, counts = np.unique(found_syn, return_index=True, return_counts=True)
            leaders[syn] = found[first]
            reached[syn] = True
            for i in np.flatnonzero(counts > 1):
                ties[int(syn[i])] = tuple(int(e) for e in found[first[i] : first[i] + counts[i]])
        if reached.all():
            return _LeaderTable(leaders, ties, weight)
        weight += 1
        enumerated += len(words)
        if enumerated + math.comb(code.n, weight) > MAX_LEADER_PATTERNS:
            return None
        words = np.concatenate(
            [words[:end] | np.uint64(1 << b) for b, end in enumerate(ends)]
        )
        syndromes = np.concatenate(
            [syndromes[:end] ^ np.int32(cols[b]) for b, end in enumerate(ends)]
        )
        ends = np.cumsum(ends) - ends


def decode_ml(code: CosetCode, y: BitVector, p: float) -> BitVector:
    """Maximum-likelihood message for a BSC(p) observation y.

    Finds the codeword nearest to y in Hamming distance (ML for p < 1/2) and
    returns the message block of its syndrome; ties go to the
    lexicographically smallest codeword.  The nearest codewords are y ^ e for
    the minimal-weight error patterns e sharing y's zero-block syndrome, so
    one lookup in the code's coset-leader table finds them, whatever k_fine is.
    A code outside the table's budget (see `_build_leader_table`) enumerates
    the fine code, under `CosetCode._fine_words`' budget.
    """
    if y.len != code.n:
        raise ValueError(f"received length {y.len} != n = {code.n}")
    _check_crossover("p", p)
    rows = code.h.row_words
    table = code._leader_table
    if table is None:
        words = code._fine_words
        dist = np.bitwise_count(words ^ np.uint64(y.bits))
        nearest = words[dist == dist.min()].tolist()
    else:
        syndrome = row_parities(rows[: code.zero_len], y.bits)
        tied = table.ties.get(syndrome)
        nearest = [y.bits ^ e for e in tied] if tied else [y.bits ^ int(table.leaders[syndrome])]
    word = nearest[0] if len(nearest) == 1 else min(nearest, key=lambda w: _lex_key(w, code.n))
    return BitVector(code.k_msg, row_parities(rows[code.zero_len :], word))


@dataclass(frozen=True)
class EquivocationReport:
    """Normalized equivocation H(S|Z)/K with rate and estimate metadata."""

    equivocation: float
    rate: float
    error_prob: float
    method: str
    stderr: float

    def to_csv_row(self) -> str:
        return (
            f"{self.equivocation:.17g},{self.rate:.17g},{self.error_prob:.17g},"
            f"{self.method},{self.stderr:.17g}"
        )


def _syndrome_weights(code: CosetCode, p: float) -> np.ndarray:
    """W[u] = sum over noise patterns e with e @ h.T = u of p^wt(e) (1-p)^(n-wt).

    The noise is pushed through h column by column, each step being
    W[u] <- (1-p) W[u] + p W[u ^ column].  The steps run on W'[A.u] = W[u],
    A the code's elimination record, in which the i-th pivot column is the
    unit 1 << i and every column before it lies below that unit.  So W' is
    zero past its first 2^i entries until that pivot: a pivot step only
    doubles the support (each of its sums adds an exact +0.0), and a
    non-pivot step gathers within it.  Every float is the one the step over
    all of W computes.
    """
    record = code._elimination.record
    q = 1.0 - p
    w = np.zeros(1 << code.h.rows, dtype=float)
    w[0] = 1.0
    indices = np.arange(len(w), dtype=np.int64)
    flipped = np.empty_like(indices)  # reused: a fresh index array per step is slower
    size = 1
    for column in code._columns:
        m = row_parities(record, column)
        if m == size:
            np.multiply(w[:size], p, out=w[size : 2 * size])
            w[:size] *= q
            size *= 2
        elif m:  # a zero column never moves the syndrome
            np.bitwise_xor(indices[:size], m, out=flipped[:size])
            block = w[:size]
            moved = block[flipped[:size]]
            block *= q
            moved *= p
            block += moved
    # Back to h's syndromes, W[u] = W'[A.u], with A.u doubled over A's columns
    # in the spent index buffer.
    relabel = flipped
    relabel[0] = 0
    for j in range(code.h.rows):
        column = row_parities(record, 1 << j)
        np.bitwise_xor(relabel[: 1 << j], column, out=relabel[1 << j : 2 << j])
    return w[relabel]


def exact_equivocation(code: CosetCode, wiretap: Bsc) -> EquivocationReport:
    """Exact H(S|Z^n)/K for uniform messages and uniform coset choice.

    Z is the codeword through BSC(wiretap.p).  The eavesdropper's posterior
    over messages depends on z only through its syndrome, so the sum over all
    2^n outputs collapses onto 2^(n - k_coarse) syndrome classes.
    """
    if code.h.rows > MAX_EXACT_ROWS:
        raise EnumerationBudgetError(
            f"enumeration budget is n - k_coarse <= {MAX_EXACT_ROWS} syndrome rows; "
            f"got {code.h.rows} rows"
        )
    if code.k_msg == 0:
        raise ValueError("code carries no message bits")
    w = _syndrome_weights(code, wiretap.p)
    # T[u] = sum over messages s of W[u ^ embed(s)], the same for every s: the
    # message bits are summed one at a time as lo + hi, the float that
    # T[u] + T[u ^ (1 << j)] gives at either end.  Only the 2^zero_len distinct
    # totals take a log; their x log2 x terms are tiled back over the messages
    # so that the entropy sums one term per syndrome class.
    t = w
    for _ in range(code.k_msg):
        halves = t.reshape(-1, 2, 1 << code.zero_len)
        t = halves[:, 0] + halves[:, 1]
    nz = t[t > 0]
    h_t = -float(np.tile(nz * np.log2(nz), 1 << code.k_msg).sum())
    h_s_given_z = _entropy_bits(w) - h_t / (1 << code.k_msg)
    delta = h_s_given_z / code.k_msg
    delta = min(max(delta, 0.0), 1.0)
    return EquivocationReport(
        equivocation=delta,
        rate=code.rate,
        error_prob=math.nan,
        method="exact",
        stderr=0.0,
    )


def _posterior_entropy_bits(code: CosetCode, z: np.ndarray, table: np.ndarray) -> np.ndarray:
    """H(S | Z = z) in bits for each output in the uint64 array z.

    Enumerates the fine code; table[d] is the BSC likelihood of a word at
    Hamming distance d from z.  The words stream through two buffers of
    about _POSTERIOR_BATCH_WORDS entries, allocated once per call and filled
    in place: a batch of samples over the whole fine code, or, once the fine
    code alone passes the budget, one sample over a run of whole messages.
    Each per-message total is the same sum over the same 2^k_coarse
    contiguous likelihoods however the runs fall.  A row whose posterior has
    a zero entry (p = 0, or an underflow) skips those entries, as 0 log 0 = 0.
    """
    words = code._fine_words
    cosets, messages = 1 << code.k_coarse, 1 << code.k_msg
    rows = max(1, _POSTERIOR_BATCH_WORDS >> code.k_fine)
    span = min(messages, max(1, _POSTERIOR_BATCH_WORDS >> code.k_coarse))
    dist = np.empty(rows * span * cosets, dtype=np.uint64)
    likelihood = np.empty(len(dist), dtype=float)
    per_message = np.empty((rows, messages), dtype=float)
    out = np.empty(len(z), dtype=float)
    for start in range(0, len(z), rows):
        batch = z[start : start + rows, None]
        count = len(batch)
        for lo in range(0, messages, span):
            hi = min(lo + span, messages)
            size = count * (hi - lo) * cosets
            run = dist[:size]
            np.bitwise_xor(batch, words[lo * cosets : hi * cosets], out=run.reshape(count, -1))
            # The distances overwrite the words as int64, the intp that take
            # reads without a cast (it casts a uint8 index on every call); they
            # lie in [0, n], so "clip" never clips.
            index = run.view(np.int64)
            np.bitwise_count(run, out=index)
            np.take(table, index, out=likelihood[:size], mode="clip")
            likelihood[:size].reshape(count, hi - lo, cosets).sum(
                axis=2, out=per_message[:count, lo:hi]
            )
        posterior = per_message[:count]
        posterior /= posterior.sum(axis=1)[:, None]
        if (posterior > 0.0).all():
            out[start : start + count] = -(posterior * np.log2(posterior)).sum(axis=1)
        else:
            out[start : start + count] = [_entropy_bits(row) for row in posterior]
    return out


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Each row of a 0/1 array of at most 64 columns as a uint64, column 0 lowest."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")[:, 0]


def _sample_outputs(code: CosetCode, p: float, samples: int, rng, workers: int) -> np.ndarray:
    """Eavesdropper outputs x ^ noise, worker substream by worker substream.

    Sample j of a worker reads the stream bits [s | c | n 32-bit chunks], as
    next_bits(k_msg), next_bits(k_coarse) and bernoulli_word(n, p) would in
    turn; a block of samples takes its bits in one next_bits call, and noise
    bit i is set where chunk i is below prng's Bernoulli threshold.  A worker
    with no samples derives no substream.
    """
    n, k_msg, k_fine = code.n, code.k_msg, code.k_fine
    threshold = np.uint64(_bernoulli_threshold(p))
    width = k_fine + 32 * n
    block = max(1, _SAMPLE_BLOCK_BITS // width)
    out = np.empty(samples, dtype=np.uint64)
    base, extra = divmod(samples, workers)
    stop = 0
    for worker in range(min(workers, samples)):
        stream = rng.substream(f"worker-{worker}")
        start, stop = stop, stop + base + (worker < extra)
        for lo in range(start, stop, block):
            count = min(block, stop - lo)
            raw = stream.next_bits(count * width).to_bytes((count * width + 7) // 8, "little")
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8), count=count * width, bitorder="little"
            ).reshape(count, width)
            chunks = np.packbits(
                bits[:, k_fine:].reshape(count, n, 32), axis=2, bitorder="little"
            ).view("<u4")[:, :, 0]
            # Word index s << k_coarse | c: the bits of c, then those of s.
            index = _pack_rows(np.concatenate((bits[:, k_msg:k_fine], bits[:, :k_msg]), axis=1))
            out[lo : lo + count] = code._fine_words[index] ^ _pack_rows(chunks < threshold)
    return out


def monte_carlo_equivocation(
    code: CosetCode, wiretap: Bsc, samples: int, rng, workers: int = 1
) -> EquivocationReport:
    """Estimate H(S|Z)/K by sampling outputs and exact per-sample posteriors.

    Each sample draws (s, coset member, noise), then computes H(S|Z=z) by
    Bayes over all fine-code words.  `workers` splits the samples into that
    many substreams of rng (worker w draws from rng.substream(f"worker-{w}")):
    a reproducible sample layout, so a fixed (seed, workers) pair reproduces
    exactly.  Every worker runs in this process.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    code._fine_words  # the fine-code budget, checked before any draw
    if code.k_msg == 0:
        raise ValueError("code carries no message bits")

    p = wiretap.p
    d = np.arange(code.n + 1, dtype=float)
    table = p**d * (1.0 - p) ** (code.n - d)
    outputs = _sample_outputs(code, p, samples, rng, workers)
    per_sample = _posterior_entropy_bits(code, outputs, table)
    per_sample /= code.k_msg
    mean = float(per_sample.mean())
    stderr = (
        float(per_sample.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    )
    return EquivocationReport(
        equivocation=mean,
        rate=code.rate,
        error_prob=math.nan,
        method="monte-carlo",
        stderr=stderr,
    )


def example1_code() -> CosetCode:
    """The length-2, rate-1/2 parity code: s=0 maps to {00, 11}, s=1 to {01, 10}."""
    return CosetCode(BitMatrix.from_rows([[1, 1]]), zero_len=0, msg_len=1)


def uncoded_code(n: int = 1) -> CosetCode:
    """Direct transmission of n message bits (identity parity check)."""
    return CosetCode(BitMatrix.identity(n), zero_len=0, msg_len=n)


def code_to_text(code: CosetCode) -> str:
    """Two-line form: 'n,k_fine,k_coarse' header, then h in hex."""
    return f"{code.n},{code.k_fine},{code.k_coarse}\n{code.h.to_hex()}\n"


def code_from_text(text: str) -> CosetCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected a header line and a matrix line")
    n, k_fine, k_coarse = _header_counts(lines[0], "n,k_fine,k_coarse")
    h = BitMatrix.from_hex(lines[1])
    if h.cols != n or h.rows != n - k_coarse:
        raise ValueError(
            f"matrix shape {h.rows}x{h.cols} inconsistent with header "
            f"n={n}, k_coarse={k_coarse}"
        )
    return CosetCode(h, zero_len=n - k_fine, msg_len=k_fine - k_coarse)
