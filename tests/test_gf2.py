import re
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab.gf2 import (
    BitMatrix,
    BitVector,
    Elimination,
    InconsistentSystemError,
    SingularMatrixError,
    invert,
    mat_mul,
    mat_vec_mul,
    random_full_rank,
    row_parities,
    xor_rows,
)
from wiretaplab.prng import prng_stream


def _rng(label):
    return prng_stream(b"gf2-test-seed-0123", label)


def _solve(elim, target, rng):
    """A uniformly random solution of x @ h.T = target, reproducible given the
    stream: the particular one XOR an rng-drawn combination of the kernel
    basis.  No package path draws such a solution; it is encode's reference."""
    x = elim.particular(target).bits
    coeffs = rng.next_bits(len(elim.kernel))
    return BitVector(elim.cols, x ^ xor_rows([kv.bits for kv in elim.kernel], coeffs))


# Standard [7,4] Hamming parity check; column j is the binary expansion of j+1.
HAMMING_H = BitMatrix.from_rows(
    [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]
)


def test_mat_vec_mul_identity():
    v = BitVector.from_bits([1, 0, 1])
    assert mat_vec_mul(BitMatrix.identity(3), v) == v


def test_mat_vec_mul_zero_matrix():
    out = mat_vec_mul(BitMatrix.zeros(2, 3), BitVector.from_bits([1, 1, 1]))
    assert out == BitVector.zeros(2)


def test_mat_vec_mul_hand_computed():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    out = mat_vec_mul(m, BitVector.from_bits([1, 1]))
    assert out.to_bits() == [0, 1]


def test_mat_vec_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec_mul(BitMatrix.identity(3), BitVector.from_bits([1, 0]))


def test_rank_identity():
    assert Elimination(BitMatrix.identity(4)).rank == 4


def test_rank_zero():
    assert Elimination(BitMatrix.zeros(3, 3)).rank == 0


def test_rank_duplicate_rows():
    assert Elimination(BitMatrix.from_rows([[1, 1], [1, 1]])).rank == 1


def test_invert_identity():
    assert invert(BitMatrix.identity(5)) == BitMatrix.identity(5)


def test_invert_self_inverse():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert invert(m) == m


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(BitMatrix.from_rows([[1, 1], [1, 1]]))


def test_invert_not_square():
    with pytest.raises(ValueError):
        invert(BitMatrix.zeros(2, 3))


def test_invert_succeeds_iff_full_rank():
    rng = _rng("invert-iff")
    for _ in range(200):
        m = BitMatrix.from_row_words(
            [rng.next_bits(5) for _ in range(5)], 5
        )
        if Elimination(m).rank == 5:
            assert mat_mul(invert(m), m) == BitMatrix.identity(5)
        else:
            with pytest.raises(SingularMatrixError):
                invert(m)


def test_solve_affine_unique_solution():
    target = BitVector.from_bits([1, 0, 1])
    x = _solve(Elimination(BitMatrix.identity(3)), target, _rng("unique"))
    assert x == target


def test_solve_affine_inconsistent():
    with pytest.raises(InconsistentSystemError):
        Elimination(BitMatrix.zeros(1, 3)).particular(BitVector.from_bits([1]))


def test_solve_affine_hamming_codeword():
    rng = _rng("hamming")
    for _ in range(50):
        x = _solve(Elimination(HAMMING_H), BitVector.zeros(3), rng)
        assert mat_vec_mul(HAMMING_H, x) == BitVector.zeros(3)


def test_solve_affine_postcondition_random_systems():
    rng = _rng("post")
    for _ in range(200):
        rows = 1 + rng.next_bits(2)
        cols = rows + rng.next_bits(2)
        h = BitMatrix.from_row_words([rng.next_bits(cols) for _ in range(rows)], cols)
        target = BitVector(rows, rng.next_bits(rows))
        try:
            x = _solve(Elimination(h), target, rng)
        except InconsistentSystemError:
            assert Elimination(h).rank < rows
            continue
        assert mat_vec_mul(h, x) == target


def test_solve_affine_uniform_over_solution_set():
    # Hamming kernel has 16 members; 10^4 draws, each count within 5 sigma.
    rng = _rng("uniform")
    draws = 10_000
    counts = {}
    for _ in range(draws):
        x = _solve(Elimination(HAMMING_H), BitVector.zeros(3), rng)
        counts[x.bits] = counts.get(x.bits, 0) + 1
    assert len(counts) == 16
    expected = draws / 16
    sigma = (draws * (1 / 16) * (15 / 16)) ** 0.5
    for count in counts.values():
        assert abs(count - expected) <= 5 * sigma


def test_kernel_basis_identity_empty():
    assert Elimination(BitMatrix.identity(3)).kernel == ()


def test_kernel_basis_zero_row():
    assert len(Elimination(BitMatrix.zeros(1, 3)).kernel) == 3


def test_kernel_basis_hamming():
    basis = Elimination(HAMMING_H).kernel
    assert len(basis) == 4
    for v in basis:
        assert mat_vec_mul(HAMMING_H, v) == BitVector.zeros(3)
    stacked = BitMatrix.from_row_words([v.bits for v in basis], 7)
    assert Elimination(stacked).rank == 4  # independent, spans the kernel


def test_random_full_rank_one_by_one():
    m = random_full_rank(_rng("1x1"), 1, 1)
    assert m == BitMatrix.from_rows([[1]])


def test_random_full_rank_shape_and_rank():
    m = random_full_rank(_rng("3x7"), 3, 7)
    assert (m.rows, m.cols) == (3, 7)
    assert Elimination(m).rank == 3


def test_random_full_rank_always_full_rank():
    rng = _rng("bulk")
    for _ in range(1000):
        assert Elimination(random_full_rank(rng, 4, 8)).rank == 4


def test_random_full_rank_rejects_tall():
    with pytest.raises(ValueError):
        random_full_rank(_rng("tall"), 3, 2)


def test_random_invertible_one():
    assert random_full_rank(_rng("inv1"), 1, 1) == BitMatrix.from_rows([[1]])


def test_random_invertible_inverts():
    m = random_full_rank(_rng("inv8"), 8, 8)
    assert mat_mul(m, invert(m)) == BitMatrix.identity(8)


def test_random_invertible_many_seeds():
    for i in range(100):
        rng = prng_stream(b"gf2-invertible-00", f"seed-{i}")
        m = random_full_rank(rng, 6, 6)
        assert mat_mul(m, invert(m)) == BitMatrix.identity(6)


def test_mat_mul_associates_with_mat_vec_mul():
    rng = _rng("assoc")
    for _ in range(100):
        a = BitMatrix.from_row_words([rng.next_bits(4) for _ in range(3)], 4)
        b = BitMatrix.from_row_words([rng.next_bits(5) for _ in range(4)], 5)
        v = BitVector(5, rng.next_bits(5))
        assert mat_vec_mul(mat_mul(a, b), v) == mat_vec_mul(a, mat_vec_mul(b, v))


def test_transpose_involution_and_entries():
    rng = _rng("transpose")
    m = BitMatrix.from_row_words([rng.next_bits(5) for _ in range(3)], 5)
    t = m.transpose()
    assert t.transpose() == m
    for r in range(3):
        for c in range(5):
            assert m[r, c] == t[c, r]


def test_bitvector_packing_and_hex():
    v = BitVector.from_bits([1, 1, 0, 1])
    assert v.bits == 0b1011  # index 0 is the least significant bit
    assert v.to_hex() == "4:0b"
    assert BitVector.from_hex("4:0b") == v


def test_bitvector_hex_roundtrip_lengths():
    rng = _rng("vec-hex")
    for n in (0, 1, 7, 8, 9, 63, 64, 65):
        v = BitVector(n, rng.next_bits(n))
        assert BitVector.from_hex(v.to_hex()) == v


def test_bitmatrix_hex_row_major():
    m = BitMatrix.from_rows([[1, 0], [1, 1]])
    # Row-major packed bits 1,0,1,1 -> 0b1101 = 0x0d.
    assert m.to_hex() == "2,2:0d"
    assert BitMatrix.from_hex("2,2:0d") == m


def test_bitmatrix_hex_roundtrip():
    rng = _rng("mat-hex")
    for rows, cols in ((1, 1), (3, 7), (5, 5), (2, 13)):
        m = BitMatrix.from_row_words([rng.next_bits(cols) for _ in range(rows)], cols)
        assert BitMatrix.from_hex(m.to_hex()) == m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 130))
def test_bitvector_hex_roundtrip_property(data, n):
    v = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert BitVector.from_hex(v.to_hex()) == v


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.integers(0, 12), cols=st.integers(0, 70))
def test_bitmatrix_hex_roundtrip_property(data, rows, cols):
    words = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    m = BitMatrix.from_row_words(words, cols)
    assert BitMatrix.from_hex(m.to_hex()) == m


def test_bitvector_hex_rejects_wrong_byte_count():
    with pytest.raises(ValueError, match=re.escape("'16:ff'")):
        BitVector.from_hex("16:ff")
    with pytest.raises(ValueError, match=re.escape("'4:0b00'")):
        BitVector.from_hex("4:0b00")


def test_bitmatrix_hex_rejects_wrong_byte_count_and_padding():
    with pytest.raises(ValueError, match=re.escape("'2,2:0fff'")):
        BitMatrix.from_hex("2,2:0fff")
    with pytest.raises(ValueError, match=re.escape("'2,5:0f'")):
        BitMatrix.from_hex("2,5:0f")
    with pytest.raises(ValueError, match="zero-padded"):
        BitMatrix.from_hex("2,2:ff")


@pytest.mark.parametrize(
    "parse, text, header",
    [(BitVector.from_hex, "-1:", "-1"), (BitVector.from_hex, "x:0b", "x"),
     (BitMatrix.from_hex, "3:07", "3"), (BitMatrix.from_hex, "1,2,3:07", "1,2,3")],
)
def test_hex_bad_header_is_quoted(parse, text, header):
    with pytest.raises(ValueError, match=re.escape(f"bad header {header!r}")):
        parse(text)


def test_bitvector_rejects_padding():
    with pytest.raises(ValueError):
        BitVector(2, 0b100)


def test_bitvector_concat_slice():
    a = BitVector.from_bits([1, 0])
    b = BitVector.from_bits([1, 1, 0])
    c = a.concat(b)
    assert c.to_bits() == [1, 0, 1, 1, 0]
    assert c.slice(0, 2) == a
    assert c.slice(2, 5) == b


# --- properties against a rank computed apart from gf2's elimination ----------


def _span_rank(words):
    """Rank of packed vectors by greedy insertion into a leading-bit basis."""
    basis = {}
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                break
            w ^= basis[top]
    return len(basis)


def _columns(h):
    return [
        sum(((w >> c) & 1) << r for r, w in enumerate(h.row_words)) for c in range(h.cols)
    ]


@st.composite
def _matrices(draw, max_rows=10, max_cols=64):
    """Rows are XORs of a few generators, so rank-deficient systems are common."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    gens = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=rows))
    picks = draw(
        st.lists(st.integers(0, (1 << len(gens)) - 1), min_size=rows, max_size=rows)
    )
    words = [reduce(xor, (g for j, g in enumerate(gens) if (pick >> j) & 1), 0) for pick in picks]
    return BitMatrix.from_row_words(words, cols)


@settings(max_examples=200, deadline=None)
@given(h=_matrices(), data=st.data())
def test_solve_affine_property(h, data):
    if data.draw(st.booleans()):
        x = BitVector(h.cols, data.draw(st.integers(0, (1 << h.cols) - 1)))
        target = mat_vec_mul(h, x)
    else:
        target = BitVector(h.rows, data.draw(st.integers(0, (1 << h.rows) - 1)))
    columns = _columns(h)
    solvable = _span_rank(columns + [target.bits]) == _span_rank(columns)
    if solvable:
        assert mat_vec_mul(h, _solve(Elimination(h), target, _rng("prop-solve"))) == target
    else:
        with pytest.raises(InconsistentSystemError):
            Elimination(h).particular(target)


@settings(max_examples=200, deadline=None)
@given(h=_matrices())
def test_rank_nullity_property(h):
    elim = Elimination(h)
    basis = elim.kernel
    assert elim.rank == _span_rank(h.row_words)
    assert elim.rank + len(basis) == h.cols
    assert _span_rank([v.bits for v in basis]) == len(basis)
    for v in basis:
        assert mat_vec_mul(h, v) == BitVector.zeros(h.rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_invert_property(data):
    n = data.draw(st.integers(1, 24))
    words = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    m = BitMatrix.from_row_words(words, n)
    if _span_rank(words) == n:
        assert mat_mul(invert(m), m) == BitMatrix.identity(n)
    else:
        with pytest.raises(SingularMatrixError):
            invert(m)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_record_relabels_pivot_columns_to_units(data):
    # The invariant the exact equivocation's pushforward relies on: the record
    # maps the i-th pivot column to 1 << i and each non-pivot column before
    # that pivot below it.
    cols = data.draw(st.integers(1, 40))
    rows = data.draw(st.integers(1, min(cols, 24)))
    h = random_full_rank(_rng(f"relabel-{data.draw(st.integers(0, 2**32))}"), rows, cols)
    elim = Elimination(h)
    seen = 0
    for j, column in enumerate(_columns(h)):
        relabelled = row_parities(elim.record, column)
        if j in elim.pivots:
            assert relabelled == 1 << seen
            seen += 1
        else:
            assert relabelled < 1 << seen
    assert seen == rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.integers(0, 2**70 - 1), max_size=40), x=st.integers(0, 2**70 - 1))
def test_row_parities_property(rows, x):
    # Bit i is the GF(2) inner product of rows[i] and x, coordinate by coordinate.
    expected = [sum((row >> c) & (x >> c) & 1 for c in range(70)) % 2 for row in rows]
    got = row_parities(rows, x)
    assert got >> len(rows) == 0
    assert [(got >> i) & 1 for i in range(len(rows))] == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.integers(0, 2**70 - 1), max_size=40), data=st.data())
def test_xor_rows_property(rows, data):
    x = data.draw(st.integers(0, (1 << len(rows)) - 1))
    # Coordinate c is the parity of the selected rows' bits at c.
    expected = [
        sum((x >> i) & (row >> c) & 1 for i, row in enumerate(rows)) % 2 for c in range(70)
    ]
    got = xor_rows(rows, x)
    assert got >> 70 == 0
    assert [(got >> c) & 1 for c in range(70)] == expected
