"""Shared-key cryptosystem from stochastic encoding plus an LPN-style mask.

Encryption of a plaintext block a with preshared (S, M):

    z = f_E(M @ (a || r)) xor u @ S xor v

where r is a random pad, u is fresh public randomness sent in the clear, v is
Bernoulli(p) noise, and f_E is a coset-code stochastic encoder.  The receiver
strips the u @ S mask, decodes away v with the code, unmixes with M^-1 and
truncates to the plaintext.  An eavesdropper without S faces noisy linear
equations in the key, i.e. the learning-parity-with-noise problem.

All randomness comes from the caller's PrngStream; per-message draws happen
in the fixed order r, u, v, coset choice, so ciphertexts are reproducible
from a seed.  (The noise v could equally be modeled as genuine channel noise
added in transit; generating it at the sender keeps the whole ciphertext
seed-reproducible.)  There is no authentication: decoding failures and
tampered inputs produce wrong plaintext silently.  The bundled parameters
are toy sized for tests, not security sized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coset import MAX_ENUM_K_FINE, CosetCode, code_from_text, code_to_text, decode_ml, encode
from .gf2 import (
    BitMatrix, BitVector, _header_counts, invert, mat_mul, mat_vec_mul, random_full_rank, xor_rows
)

__all__ = [
    "LpnParams",
    "LpnKey",
    "LpnCiphertext",
    "keygen",
    "encrypt",
    "decrypt",
    "registered_code",
    "correction_radius",
    "toy_params",
    "key_to_text",
    "key_from_text",
    "ciphertext_to_text",
    "ciphertext_from_text",
]

KEY_HEADER = "lpn-key v1:"
CT_HEADER = "lpn-ct v1:"


@dataclass(frozen=True)
class LpnParams:
    """Plaintext bits l, mixed-block bits m, mask bits k, code length n, noise p."""

    l: int
    m: int
    k: int
    n: int
    p: float

    def __post_init__(self):
        if not 0 < self.l <= self.m <= self.n:
            raise ValueError(f"need 0 < l <= m <= n, got ({self.l}, {self.m}, {self.n})")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"noise rate out of (0, 1/2): {self.p}")

    @classmethod
    def from_text(cls, text: str) -> "LpnParams":
        """Parse 'l,m,k,n,p', the form `to_text` writes."""
        fields = text.split(",")
        if len(fields) != 5:
            raise ValueError(f"expected l,m,k,n,p, got {len(fields)} values")
        l, m, k, n, p = fields
        return cls(int(l), int(m), int(k), int(n), float(p))

    def to_text(self) -> str:
        """'l,m,k,n,p' with p exact (repr): the --params value and key-file header."""
        return f"{self.l},{self.m},{self.k},{self.n},{self.p!r}"


@dataclass(frozen=True)
class LpnKey:
    """Preshared secret: mask matrix S, mixing matrix M with cached inverse, code."""

    s_matrix: BitMatrix
    mixing: BitMatrix
    mixing_inv: BitMatrix
    code: CosetCode


@dataclass(frozen=True)
class LpnCiphertext:
    """Masked codeword z plus the public randomness u it was masked with."""

    z: BitVector
    u: BitVector


# [7,4] Hamming parity checks; column j is the binary expansion of j+1.
_HAMMING_ROWS = (0b1010101, 0b0110011, 0b0001111)
_HAMMING_BLOCK_LEN = 7
_HAMMING_MSG_PER_BLOCK = 2
_HAMMING_RADIUS = 1
# Each block adds 4 fine-code bits and 3 syndrome rows.  From 6 blocks (m = 12)
# the coset-leader table's 2^(3m/2) syndromes pass MAX_LEADER_PATTERNS, so
# decode_ml enumerates the 2^(2m) fine-code words, which MAX_ENUM_K_FINE caps.
_HAMMING_MAX_BLOCKS = MAX_ENUM_K_FINE // 4


def _hamming_block_code(blocks: int) -> CosetCode:
    """Blocks of the [7,4] Hamming code, two message + two coset bits each.

    Per block the fine code is the Hamming code itself (corrects one error);
    coordinates 0 and 1 of each block carry the message syndrome, so the
    secrecy subcode is the Hamming words vanishing there.
    """
    zero_words = []
    msg_words = []
    for b in range(blocks):
        shift = b * _HAMMING_BLOCK_LEN
        zero_words.extend(w << shift for w in _HAMMING_ROWS)
        msg_words.extend((1 << shift, 2 << shift))
    n = blocks * _HAMMING_BLOCK_LEN
    h = BitMatrix.from_row_words(zero_words + msg_words, n)
    return CosetCode(h, zero_len=len(zero_words), msg_len=len(msg_words))


def registered_code(n: int, m: int) -> CosetCode:
    """The registered inner code for (n, m), or ValueError if none fits or
    its ciphertexts could not be decoded within the enumeration budget."""
    blocks, rem = divmod(m, _HAMMING_MSG_PER_BLOCK)
    if rem or blocks < 1 or n != blocks * _HAMMING_BLOCK_LEN:
        raise ValueError(
            f"no registered code family for n={n}, m={m} "
            f"(have: Hamming blocks with n = 7m/2, m even)"
        )
    if blocks > _HAMMING_MAX_BLOCKS:
        raise ValueError(
            f"m={m} is past the registered family's decoding budget: its 2^{2 * m} "
            f"fine-code words pass 2^{MAX_ENUM_K_FINE} (have: even m <= "
            f"{_HAMMING_MAX_BLOCKS * _HAMMING_MSG_PER_BLOCK})"
        )
    return _hamming_block_code(blocks)


def correction_radius(params: LpnParams) -> int:
    """Guaranteed error-correction radius of the registered code."""
    registered_code(params.n, params.m)  # raises if the family does not apply
    return _HAMMING_RADIUS


def toy_params(p: float = 0.05) -> LpnParams:
    """Desk-scale defaults (4 Hamming blocks); NOT security sized."""
    return LpnParams(l=4, m=8, k=16, n=28, p=p)


def keygen(rng, params: LpnParams) -> LpnKey:
    """Fresh key material, deterministic given the stream.

    Draw order: the k rows of S, then the mixing matrix M (rejection-sampled
    until invertible).  The inner code is fixed by the registry, not random.
    """
    code = registered_code(params.n, params.m)
    s_rows = tuple(rng.next_bits(params.n) for _ in range(params.k))
    s_matrix = BitMatrix.from_row_words(s_rows, params.n)
    mixing = random_full_rank(rng, params.m, params.m)
    return LpnKey(s_matrix, mixing, invert(mixing), code)


def _mask(key: LpnKey, u: BitVector) -> BitVector:
    """u @ S, the keyed one-time mask: the XOR of the rows of S that u selects."""
    if u.len != key.s_matrix.rows:
        raise ValueError(f"mask input length {u.len} != {key.s_matrix.rows} rows of S")
    return BitVector(key.s_matrix.cols, xor_rows(key.s_matrix.row_words, u.bits))


def encrypt(key: LpnKey, params: LpnParams, a: BitVector, rng) -> LpnCiphertext:
    """z = f_E(M @ (a || r)) xor u @ S xor v, with u shipped in the clear."""
    if a.len != params.l:
        raise ValueError(f"plaintext length {a.len} != l = {params.l}")
    r = BitVector(params.m - params.l, rng.next_bits(params.m - params.l))
    u = BitVector(params.k, rng.next_bits(params.k))
    v_bits = rng.bernoulli_word(params.n, params.p)
    mixed = mat_vec_mul(key.mixing, a.concat(r))
    codeword = encode(key.code, mixed, rng)
    z = BitVector(params.n, codeword.bits ^ _mask(key, u).bits ^ v_bits)
    return LpnCiphertext(z, u)


def decrypt(key: LpnKey, params: LpnParams, ct: LpnCiphertext) -> BitVector:
    """trunc(M^-1 @ g(z xor u @ S), l); silently wrong if v overran the code."""
    if ct.z.len != params.n or ct.u.len != params.k:
        raise ValueError("ciphertext lengths do not match params")
    unmasked = ct.z ^ _mask(key, ct.u)
    decoded = decode_ml(key.code, unmasked, params.p)
    unmixed = mat_vec_mul(key.mixing_inv, decoded)
    return unmixed.slice(0, params.l)


def key_to_text(key: LpnKey, params: LpnParams) -> str:
    """Key file: header with params, then S, M and the code as `code_to_text` writes it."""
    return (
        f"{KEY_HEADER} {params.to_text()}\n"
        f"{key.s_matrix.to_hex()}\n"
        f"{key.mixing.to_hex()}\n"
        f"{code_to_text(key.code)}"
    )


def key_from_text(text: str) -> tuple:
    """Parse a key file; returns (key, params)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 5 or not lines[0].startswith(KEY_HEADER):
        raise ValueError("not a v1 lpn key file")
    params = LpnParams.from_text(lines[0][len(KEY_HEADER):])
    s_matrix = BitMatrix.from_hex(lines[1])
    mixing = BitMatrix.from_hex(lines[2])
    code = code_from_text("\n".join(lines[3:]))
    if s_matrix.rows != params.k or s_matrix.cols != params.n:
        raise ValueError("S shape inconsistent with params")
    if mixing.rows != params.m or mixing.cols != params.m:
        raise ValueError("M shape inconsistent with params")
    if code.n != params.n or code.k_msg != params.m:
        raise ValueError("code shape inconsistent with params")
    mixing_inv = invert(mixing)
    if mat_mul(mixing, mixing_inv) != BitMatrix.identity(params.m):
        raise ValueError("mixing matrix failed inversion check")
    return LpnKey(s_matrix, mixing, mixing_inv, code), params


def ciphertext_to_text(ct: LpnCiphertext) -> str:
    """Ciphertext file: header with (n, k), then z and u as hex lines."""
    return f"{CT_HEADER} {ct.z.len},{ct.u.len}\n{ct.z.to_hex()}\n{ct.u.to_hex()}\n"


def ciphertext_from_text(text: str) -> LpnCiphertext:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 3 or not lines[0].startswith(CT_HEADER):
        raise ValueError("not a v1 lpn ciphertext file")
    n, k = _header_counts(lines[0][len(CT_HEADER):], "n,k")
    z = BitVector.from_hex(lines[1])
    u = BitVector.from_hex(lines[2])
    if z.len != n or u.len != k:
        raise ValueError("ciphertext lengths inconsistent with header")
    return LpnCiphertext(z, u)
