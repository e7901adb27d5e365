"""Dense GF(2) linear algebra on bit-packed integers.

Vectors and matrices are stored as Python integers, bit i of a row being
coordinate i (LSB-first).  One Gauss-Jordan elimination with XOR row
operations, `Elimination`, gives rank, kernel basis and affine solutions, and
`invert` reads the inverse from it; everything here is desk-scale, no attempt
at asymptotically fast multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "BitVector",
    "BitMatrix",
    "SingularMatrixError",
    "InconsistentSystemError",
    "Elimination",
    "row_parities",
    "xor_rows",
    "mat_vec_mul",
    "mat_mul",
    "invert",
    "random_full_rank",
]


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix with rank below its size."""


class InconsistentSystemError(ValueError):
    """Raised when an affine system x @ h.T = target has no solution."""


def _header_counts(head: str, names: str) -> list:
    """The comma-separated counts of a serialized header, one per field of
    names ('rows,cols'); a malformed header is quoted in the error."""
    fields = head.split(",")
    if len(fields) != names.count(",") + 1 or not all(f.strip().isdecimal() for f in fields):
        raise ValueError(f"bad header {head.strip()!r}: expected {names}, nonnegative integers")
    return [int(f) for f in fields]


def _packed_from_hex(text: str, hexpart: str, nbits: int) -> int:
    """The little-endian hex of a serialized field, which must pack nbits."""
    raw = bytes.fromhex(hexpart)
    if len(raw) != (nbits + 7) // 8 or int.from_bytes(raw, "little") >> nbits:
        nbytes = (nbits + 7) // 8
        raise ValueError(f"{text.strip()!r}: {nbits} bits need {nbytes} hex bytes, zero-padded")
    return int.from_bytes(raw, "little")


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector: ``len`` bits packed into ``bits`` LSB-first."""

    len: int
    bits: int

    def __post_init__(self):
        if self.len < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.len:
            raise ValueError("padding bits beyond len must be zero")

    @classmethod
    def from_bits(cls, seq) -> "BitVector":
        """Build from an iterable of 0/1 values, index 0 first."""
        bits = 0
        n = 0
        for b in seq:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            bits |= b << n
            n += 1
        return cls(n, bits)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    def to_bits(self) -> list:
        return [(self.bits >> i) & 1 for i in range(self.len)]

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.len:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.len != other.len:
            raise ValueError(f"length mismatch: {self.len} vs {other.len}")
        return BitVector(self.len, self.bits ^ other.bits)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.len + other.len, self.bits | (other.bits << self.len))

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.len:
            raise ValueError(f"bad slice [{start}:{stop}] of len {self.len}")
        width = stop - start
        return BitVector(width, (self.bits >> start) & ((1 << width) - 1))

    def to_hex(self) -> str:
        """Serialize as ``len:hex`` with little-endian bytes of the packing."""
        nbytes = (self.len + 7) // 8
        return f"{self.len}:{self.bits.to_bytes(nbytes, 'little').hex()}"

    @classmethod
    def from_hex(cls, text: str) -> "BitVector":
        head, _, hexpart = text.strip().partition(":")
        (n,) = _header_counts(head, "len")
        return cls(n, _packed_from_hex(text, hexpart, n))

    def __repr__(self):
        return f"BitVector({''.join(str(b) for b in self.to_bits())})"


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix: each entry of ``row_words`` packs one row."""

    rows: int
    cols: int
    row_words: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative shape")
        if len(self.row_words) != self.rows:
            raise ValueError("row count mismatch")
        for w in self.row_words:
            if w < 0 or w >> self.cols:
                raise ValueError("row padding bits beyond cols must be zero")

    @classmethod
    def from_rows(cls, rows_of_bits) -> "BitMatrix":
        """Build from a list of rows, each an iterable of 0/1 values."""
        words = []
        cols = None
        for r in rows_of_bits:
            v = BitVector.from_bits(r)
            if cols is None:
                cols = v.len
            elif v.len != cols:
                raise ValueError("ragged rows")
            words.append(v.bits)
        if cols is None:
            raise ValueError("need explicit shape for an empty matrix")
        return cls(len(words), cols, tuple(words))

    @classmethod
    def from_row_words(cls, words, cols: int) -> "BitMatrix":
        return cls(len(words), cols, tuple(words))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    def __getitem__(self, rc) -> int:
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(rc)
        return (self.row_words[r] >> c) & 1

    def transpose(self) -> "BitMatrix":
        words = [0] * self.cols
        for r, w in enumerate(self.row_words):
            while w:
                c = (w & -w).bit_length() - 1
                words[c] |= 1 << r
                w &= w - 1
        return BitMatrix(self.cols, self.rows, tuple(words))

    def to_hex(self) -> str:
        """Serialize as ``rows,cols:hex`` of the row-major packed bits."""
        packed = 0
        for r, w in enumerate(self.row_words):
            packed |= w << (r * self.cols)
        nbytes = (self.rows * self.cols + 7) // 8
        return f"{self.rows},{self.cols}:{packed.to_bytes(nbytes, 'little').hex()}"

    @classmethod
    def from_hex(cls, text: str) -> "BitMatrix":
        head, _, hexpart = text.strip().partition(":")
        rows, cols = _header_counts(head, "rows,cols")
        packed = _packed_from_hex(text, hexpart, rows * cols)
        mask = (1 << cols) - 1
        words = tuple((packed >> (r * cols)) & mask for r in range(rows))
        return cls(rows, cols, words)

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


def row_parities(rows, x: int) -> int:
    """Bit i = parity(rows[i] & x): the packed product of the rows with x."""
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def xor_rows(rows, x: int) -> int:
    """XOR of the rows[i] whose bit i of x is set: the packed product x @ rows."""
    out = 0
    for row in rows:
        if x & 1:
            out ^= row
        x >>= 1
    return out


def mat_vec_mul(m: BitMatrix, v: BitVector) -> BitVector:
    """m @ v over GF(2); result_i = parity(row_i & v)."""
    if v.len != m.cols:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} @ len {v.len}")
    return BitVector(m.rows, row_parities(m.row_words, v.bits))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a @ b over GF(2): row i is the XOR of the rows of b that row i of a selects."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, tuple(xor_rows(b.row_words, wa) for wa in a.row_words))


def _rref(words, cols):
    """In-place Gauss-Jordan on a list of packed rows.

    Returns the pivot column list; rows end up reduced both below and above
    each pivot, pivot rows first in pivot-column order.
    """
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(words)):
            if (words[i] >> c) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        words[r], words[pivot] = words[pivot], words[r]
        for i in range(len(words)):
            if i != r and (words[i] >> c) & 1:
                words[i] ^= words[r]
        pivots.append(c)
        r += 1
        if r == len(words):
            break
    return pivots


class Elimination:
    """Gauss-Jordan elimination of h, kept so that one elimination serves
    its rank (``.rank``), kernel basis (``.kernel``) and every right-hand side
    (``.particular``).

    ``record[i]``, kept in the high bits of the augmented rows, packs the rows
    of h that XOR to reduced row i, so reduced row i of x @ h.T = target has
    right-hand side parity(record[i] & target).  Likewise row_parities(record,
    column j of h) is column j of the reduced matrix: 1 << i at the i-th pivot
    column, and below 1 << i at each non-pivot column before that pivot.
    """

    def __init__(self, h: BitMatrix):
        n = self.cols = h.cols
        words = [w | (1 << (n + i)) for i, w in enumerate(h.row_words)]
        self.pivots = tuple(_rref(words, n))
        self.rank = len(self.pivots)
        self.reduced = tuple(w & ((1 << n) - 1) for w in words)
        self.record = tuple(w >> n for w in words)

    @cached_property
    def kernel(self) -> tuple:
        """Basis of {x : x @ h.T = 0}, one vector per free column in order."""
        basis = []
        for free in sorted(set(range(self.cols)) - set(self.pivots)):
            v = 1 << free
            for row, p in zip(self.reduced, self.pivots):
                if (row >> free) & 1:
                    v |= 1 << p
            basis.append(BitVector(self.cols, v))
        return tuple(basis)

    def particular(self, target: BitVector) -> BitVector:
        """The solution of x @ h.T = target with every free variable 0;
        raises InconsistentSystemError when there is none."""
        rows = len(self.record)
        if target.len != rows:
            raise ValueError(f"dimension mismatch: target len {target.len}, {rows} rows")
        parities = row_parities(self.record, target.bits)
        if parities >> self.rank:
            raise InconsistentSystemError("target not in the row space of h")
        return BitVector(self.cols, xor_rows([1 << p for p in self.pivots], parities))


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises SingularMatrixError if rank < n."""
    if m.rows != m.cols:
        raise ValueError(f"not square: {m.rows}x{m.cols}")
    e = Elimination(m)
    if e.rank < m.rows:
        raise SingularMatrixError(f"rank {e.rank} < {m.rows}")
    # Full rank reduces m to the identity, so the record is the inverse.
    return BitMatrix(m.rows, m.cols, e.record)


def random_full_rank(rng, rows: int, cols: int) -> BitMatrix:
    """Uniform full-row-rank matrix by rejection sampling."""
    if rows > cols:
        raise ValueError(f"rows {rows} > cols {cols}")
    while True:
        m = BitMatrix(rows, cols, tuple(rng.next_bits(cols) for _ in range(rows)))
        if Elimination(m).rank == rows:
            return m
