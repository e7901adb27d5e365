import hashlib
import math
import re
import tracemalloc
from dataclasses import replace
from statistics import NormalDist
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiretaplab import coset
from wiretaplab.channels import Bsc
from wiretaplab.coset import (
    CosetCode,
    EnumerationBudgetError,
    EquivocationReport,
    WiretapCodeParams,
    code_from_text,
    code_to_text,
    decode_ml,
    encode,
    exact_equivocation,
    example1_code,
    monte_carlo_equivocation,
    params_from_channel,
    random_coset_code,
    uncoded_code,
    _lex_key,
    _posterior_entropy_bits,
)
from wiretaplab.gf2 import BitMatrix, BitVector, Elimination, mat_vec_mul, row_parities
from wiretaplab.infometrics import _entropy_bits, binary_entropy
from wiretaplab.lpn import registered_code
from wiretaplab.prng import PrngStream, prng_stream

import checks
from test_gf2 import _solve

P_UNIT = 0.15865525393145707
P_W_UNIT = 0.23975006109347674

# H(S|Z^2) of the length-2 parity code over BSC(0.25), in closed form:
# -(a log a + b log b) with a = (1-p)^2 + p^2, b = 2p(1-p).
EXAMPLE1_EQUIVOCATION = 0.954434002924965

HAMMING_ROWS = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def _rng(label):
    return prng_stream(b"coset-test-seed-0", label)


def _hamming_full_message_code():
    """[7,4] Hamming as the fine code with all 4 data bits as message.

    k_coarse = 0, so messages and codewords are in bijection and the block
    error rate equals the codeword error rate.
    """
    rows = HAMMING_ROWS + [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
    ]
    return CosetCode(BitMatrix.from_rows(rows), zero_len=3, msg_len=4)


def _hamming_coset_code():
    """[7,4] Hamming fine code, 2 message bits, 2 coset-randomness bits."""
    rows = HAMMING_ROWS + [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
    ]
    return CosetCode(BitMatrix.from_rows(rows), zero_len=3, msg_len=2)


def _random_code(label, n, k_fine, k_coarse):
    params = WiretapCodeParams(n, k_fine, k_coarse, k_fine - k_coarse, 0.01)
    return random_coset_code(_rng(label), params)


def _loop_posterior_entropy_bits(code, z_bits, p):
    """H(S | Z = z) for one output, one p**d per fine-code word: the form the
    batched posterior replaced, kept as its reference."""
    words = code._fine_words
    d = np.bitwise_count(words ^ np.uint64(z_bits)).astype(float)
    likelihood = p**d * (1.0 - p) ** (code.n - d)
    per_message = likelihood.reshape(1 << code.k_msg, 1 << code.k_coarse).sum(axis=1)
    posterior = per_message / per_message.sum()
    nz = posterior[posterior > 0]
    return -float((nz * np.log2(nz)).sum())


def _enum_decode_ml(code, y, p):
    """Nearest fine-code word by a scan of all 2^k_fine of them, ties to the
    lexicographically smallest: the decoder the coset-leader table replaced,
    kept as its reference."""
    words = code._fine_words
    dist = np.bitwise_count(words ^ np.uint64(y.bits))
    candidates = np.flatnonzero(dist == dist.min())
    idx = min(candidates, key=lambda i: _lex_key(int(words[i]), code.n))
    return BitVector(code.k_msg, int(idx) >> code.k_coarse)


# Even-weight fine code in length 3 (message bit x1 xor x2): every nonzero
# syndrome has three tied leaders.
TIE_CODE = CosetCode(BitMatrix.from_rows([[1, 1, 1], [0, 1, 1]]), zero_len=1, msg_len=1)
# zero_len = 3 > k_fine = 1: more syndromes than fine-code words, no table.
NO_TABLE_CODE = CosetCode(BitMatrix.identity(4), zero_len=3, msg_len=1)


@st.composite
def _small_codes(draw, max_n=12):
    """Random coset codes with n <= max_n and at least one message bit."""
    n = draw(st.integers(1, max_n))
    k_fine = draw(st.integers(1, n))
    k_coarse = draw(st.integers(0, k_fine - 1))
    params = WiretapCodeParams(n, k_fine, k_coarse, k_fine - k_coarse, 0.01)
    return random_coset_code(_rng(f"prop-code-{draw(st.integers(0, 2**32))}"), params)


# Checked against bench's transform reference: the four codes of the brute
# force it replaced, then 16 syndrome rows at n = 24 and 20 at n = 32.
REFERENCE_CASES = [
    (_random_code("bf-1", 8, 5, 2), 0.1),
    (_random_code("bf-2", 8, 5, 2), 0.3),
    (_hamming_coset_code(), 0.25),
    (_random_code("bf-3", 6, 4, 3), 0.2),
    (_random_code("edge-code", 24, 16, 8), 0.11),
    (_random_code("rows-32", 32, 16, 12), 0.11),
]
REFERENCE_P = st.one_of(st.sampled_from([0.0, 1e-300, 0.5]), st.floats(0.0, 0.5))


def _reference_examples(test):
    for code, p in REFERENCE_CASES:
        test = example(code=code, p=p)(test)
    return test


# --- params_from_channel -----------------------------------------------------


def test_params_unit_operating_point():
    params = params_from_channel(10**5, P_UNIT, P_W_UNIT, 1e-4)
    # Direct arithmetic from the dimension formulas.
    assert params.k_fine == math.floor(10**5 * (1 - binary_entropy(P_UNIT) - 2e-4))
    assert params.k_coarse == math.floor(10**5 * (1 - binary_entropy(P_W_UNIT) - 2e-4))
    assert (params.k_fine, params.k_coarse, params.k_msg) == (36871, 20517, 16354)
    assert params.k_msg > 0
    bound = binary_entropy(P_W_UNIT) - binary_entropy(P_UNIT) - 3e-4
    assert params.rate >= bound


def test_params_full_noise_wiretap_spends_everything_on_secrecy():
    params = params_from_channel(10**4, 0.05, 0.5, 1e-6)
    assert params.k_coarse == 0
    assert params.k_msg == params.k_fine


def test_params_equal_channels_no_message():
    params = params_from_channel(1000, 0.1, 0.1, 1e-4)
    assert params.k_msg == 0
    assert params.k_fine == params.k_coarse == math.floor(1000 * (1 - binary_entropy(0.1) - 2e-4))


def test_params_reject_wiretap_crossover_past_half():
    # h(0.7) = h(0.3), so the dimension formulas alone would give k_msg = 10
    # for a wiretap channel that Bsc rejects.
    with pytest.raises(ValueError, match=r"crossover probability p_w must be in \[0, 1/2\], got 0.7"):
        params_from_channel(24, 0.1, 0.7, 0.01)


@pytest.mark.parametrize("epsilon", [0.0, -0.01, math.nan])
def test_wiretap_params_reject_non_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        WiretapCodeParams(24, 8, 4, 4, epsilon)


@pytest.mark.parametrize(
    "n, epsilon, name",
    [(24, math.inf, "epsilon"), (24, -math.inf, "epsilon"), (24, math.nan, "epsilon"),
     (0, 0.01, "n"), (-3, 0.01, "n")],
)
def test_params_reject_bad_length_or_slack_at_entry(n, epsilon, name):
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        params_from_channel(n, 0.1, 0.3, epsilon)


def test_params_nonpositive_dimension_rejected():
    with pytest.raises(ValueError):
        params_from_channel(10, 0.49, 0.499, 1e-3)


# --- code construction -------------------------------------------------------


def test_random_coset_code_shapes():
    code = _random_code("shape", 7, 4, 3)
    assert (code.h.rows, code.h.cols) == (4, 7)
    assert code.k_msg == 1
    assert 1 << code.k_msg == 2  # two message cosets


def test_random_coset_code_always_full_rank():
    rng = _rng("fullrank")
    params = WiretapCodeParams(10, 6, 3, 3, 0.01)
    for _ in range(1000):
        code = random_coset_code(rng, params)
        assert Elimination(code.h).rank == code.h.rows


def test_coset_code_rejects_rank_deficient():
    with pytest.raises(ValueError):
        CosetCode(BitMatrix.from_rows([[1, 1], [1, 1]]), zero_len=1, msg_len=1)


def test_coset_code_rejects_bad_layout():
    with pytest.raises(ValueError):
        CosetCode(BitMatrix.identity(3), zero_len=1, msg_len=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WiretapCodeParams(8, 3, 4, -1, 0.01), "need 0 <= k_coarse <= k_fine <= n"),
        (lambda: WiretapCodeParams(8, 4, 2, 1, 0.01), "k_msg must equal k_fine - k_coarse"),
        (lambda: CosetCode(BitMatrix.identity(2), zero_len=-1, msg_len=3),
         "negative syndrome block length"),
        (lambda: decode_ml(example1_code(), BitVector.zeros(3), 0.1), "received length 3 != n = 2"),
        (lambda: monte_carlo_equivocation(example1_code(), Bsc(0.2), 10, _rng("w0"), workers=0),
         "workers must be >= 1"),
        (lambda: monte_carlo_equivocation(ZERO_MSG_CODE, Bsc(0.2), 10, _rng("k0")),
         "code carries no message bits"),
        (lambda: code_from_text("2,1,0\n"), "expected a header line and a matrix line"),
    ],
)
def test_bad_input_rejected_where_it_enters(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# --- encoding ----------------------------------------------------------------


def test_encode_syndrome_always_matches_target():
    rng = _rng("enc-syndrome")
    code = _random_code("enc-code", 12, 7, 3)
    for _ in range(100):
        s = BitVector(code.k_msg, rng.next_bits(code.k_msg))
        x = encode(code, s, rng)
        assert mat_vec_mul(code.h, x) == BitVector.zeros(code.zero_len).concat(s)


def test_encode_draws_vary_with_randomness():
    rng = _rng("enc-vary")
    code = _hamming_coset_code()  # k_coarse = 2
    s = BitVector.from_bits([1, 0])
    outputs = {encode(code, s, rng).bits for _ in range(20)}
    assert len(outputs) > 1


# k_msg = 0 with a one-dimensional subcode: encode draws only the coset bit.
ZERO_MSG_CODE = CosetCode(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), zero_len=2, msg_len=0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code=_small_codes(max_n=24), messages=st.lists(st.integers(0, 2**24 - 1), max_size=20))
@example(code=ZERO_MSG_CODE, messages=[0, 0, 0])
@example(code=registered_code(28, 8), messages=list(range(256)))
def test_encode_equals_elimination_solve(code, messages):
    # The solve of [0 || s] (test_gf2._solve) is the encoder the generator XOR
    # replaced, kept as its reference: from two identical streams both draw the
    # same coset bits and, by linearity of the particular solution, give the
    # same word.
    ours, reference = _rng("enc-solve"), _rng("enc-solve")
    for bits in messages:
        s = BitVector(code.k_msg, bits & ((1 << code.k_msg) - 1))
        target = BitVector.zeros(code.zero_len).concat(s)
        assert encode(code, s, ours) == _solve(code._elimination, target, reference)


def _table_fine_words(code):
    """Coset leaders per message XOR subcode words per coset index: the build
    the generator doubling replaced, kept as its reference."""
    elim = code._elimination
    subcode = np.zeros(1, dtype=np.uint64)
    for vec in elim.kernel:
        subcode = np.concatenate([subcode, subcode ^ np.uint64(vec.bits)])
    leaders = np.zeros(1, dtype=np.uint64)
    for j in range(code.msg_len):
        target = BitVector.zeros(code.zero_len).concat(BitVector(code.msg_len, 1 << j))
        leaders = np.concatenate([leaders, leaders ^ np.uint64(elim.particular(target).bits)])
    return (leaders[:, None] ^ subcode[None, :]).reshape(-1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code=_small_codes())
@example(code=ZERO_MSG_CODE)
@example(code=registered_code(28, 8))
def test_fine_words_equal_leader_subcode_table(code):
    words = code._fine_words
    assert words.dtype == np.uint64
    assert np.array_equal(words, _table_fine_words(code))


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        encode(example1_code(), BitVector.from_bits([1, 0]), _rng("len"))


def test_zero_message_code_accepts_only_empty_message():
    code = CosetCode(BitMatrix.identity(3), zero_len=3, msg_len=0)
    rng = _rng("empty-msg")
    x = encode(code, BitVector.zeros(0), rng)
    assert x == BitVector.zeros(3)  # identity check pins the whole codeword
    with pytest.raises(ValueError):
        encode(code, BitVector.from_bits([1]), rng)


def test_example1_mapping():
    code = example1_code()
    rng = _rng("ex1-map")
    for _ in range(50):
        assert encode(code, BitVector.from_bits([0]), rng).bits in (0b00, 0b11)
        assert encode(code, BitVector.from_bits([1]), rng).bits in (0b01, 0b10)
    assert code.rate == 0.5


def test_example1_coset_members_equally_likely():
    code = example1_code()
    rng = _rng("ex1-freq")
    draws = 10_000
    ones = sum(encode(code, BitVector.from_bits([0]), rng).bits == 0b11 for _ in range(draws))
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) <= 5 * sigma


def test_stochastic_encoder_cosets_disjoint():
    for code in (example1_code(), _hamming_coset_code(), _random_code("disjoint", 9, 5, 2)):
        words = [int(w) for w in code._fine_words]
        assert len(set(words)) == len(words) == 1 << code.k_fine
        zero = BitVector.zeros(code.zero_len)
        for i, word in enumerate(words):
            s = BitVector(code.k_msg, i >> code.k_coarse)
            assert mat_vec_mul(code.h, BitVector(code.n, word)) == zero.concat(s)


# --- decoding ----------------------------------------------------------------


def test_decode_noiseless_roundtrip():
    rng = _rng("dec-clean")
    code = _random_code("dec-code", 12, 7, 3)
    for _ in range(50):
        s = BitVector(code.k_msg, rng.next_bits(code.k_msg))
        x = encode(code, s, rng)
        assert decode_ml(code, x, 0.1) == s


def test_decode_corrects_single_errors_hamming():
    code = _hamming_coset_code()
    rng = _rng("dec-flip")
    for s_int in range(4):
        s = BitVector(2, s_int)
        for _ in range(4):
            x = encode(code, s, rng)
            for i in range(7):
                y = BitVector(7, x.bits ^ (1 << i))
                assert decode_ml(code, y, 0.05) == s


def test_decode_tie_breaks_lexicographically():
    # Even-weight fine code in length 3; message bit is x1 xor x2.
    code = CosetCode(
        BitMatrix.from_rows([[1, 1, 1], [0, 1, 1]]), zero_len=1, msg_len=1
    )
    # y = 001 is distance 1 from both 000 (s=0) and 101 (s=1): 000 wins.
    assert decode_ml(code, BitVector.from_bits([0, 0, 1]), 0.1).bits == 0
    # y = 010 ties 000, 011, 110; lexicographically smallest is 000.
    assert decode_ml(code, BitVector.from_bits([0, 1, 0]), 0.1).bits == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    code=_small_codes(),
    words=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=40),
    p=st.sampled_from([0.0, 0.05, 0.5]),
)
@example(code=TIE_CODE, words=list(range(8)), p=0.1)
@example(code=NO_TABLE_CODE, words=list(range(16)), p=0.1)
def test_table_decode_equals_enumeration(code, words, p):
    # _small_codes draws zero_len on both sides of k_fine, so codes with and
    # without a table, and tables with tied syndromes, all come up.
    for bits in words:
        y = BitVector(code.n, bits & ((1 << code.n) - 1))
        assert decode_ml(code, y, p) == _enum_decode_ml(code, y, p)


def _leader_table_digest(table):
    return hashlib.sha256(
        table.leaders.tobytes() + repr(sorted(table.ties.items())).encode()
    ).hexdigest()


def test_leader_tables_pinned():
    # Leaders and ties of the LPN code and of a tied (24, 16, 8) code, as the
    # weight-by-weight enumeration gives them.
    assert _leader_table_digest(registered_code(28, 8)._leader_table) == (
        "6369c04b4c6948a4ddfbd8f2886b0ff4d32f19028f58f1b9f094379174442414"
    )
    assert _leader_table_digest(_random_code("table-k16", 24, 16, 8)._leader_table) == (
        "92464309985ed17ecd6ebfa2b9244c0f3dfb91db3fd25c6fe856824148855181"
    )


def test_leader_table_rule():
    lpn_table = registered_code(28, 8)._leader_table
    assert (len(lpn_table.leaders), lpn_table.radius, lpn_table.ties) == (4096, 4, {})
    k16 = _random_code("table-k16", 24, 16, 8)._leader_table
    assert (len(k16.leaders), k16.radius) == (256, 3)
    assert k16.ties  # tied syndromes: decoding takes the lexicographic rule
    assert TIE_CODE._leader_table.ties == {1: (1, 2, 4)}
    # The paper's (24, 8, 4) code has 2^16 syndromes for 2^8 fine-code words.
    assert _random_code("table-k8", 24, 8, 4)._leader_table is None
    assert NO_TABLE_CODE._leader_table is None


def test_decode_past_pattern_budget_enumerates(monkeypatch):
    # Patterns of weight <= 2 in length 10: a radius-2 code fills its table
    # within the budget, and a radius-3 code would pass it at weight 3.
    monkeypatch.setattr(coset, "MAX_LEADER_PATTERNS", 1 + 10 + 45)
    within, past = (_random_code(f"table-budget-{i}", 10, 6, 2) for i in (0, 1))
    assert within._leader_table.radius == 2
    assert past._leader_table is None
    for code in (within, past):
        for bits in range(1 << code.n):
            y = BitVector(code.n, bits)
            assert decode_ml(code, y, 0.1) == _enum_decode_ml(code, y, 0.1)


def test_decode_budget():
    # k_fine = 22 is past the fine-code budget, but the empty zero block gives a
    # one-syndrome table, so y decodes to its own bits without a scan.
    y = BitVector(22, 0x2A5A5A)
    assert decode_ml(uncoded_code(22), y, 0.1) == y
    # zero_len = 23 puts the table past MAX_LEADER_PATTERNS, and the fallback
    # scan of the 2^21 fine-code words past its budget.
    code = _random_code("no-table-k21", 44, 21, 5)
    assert code._leader_table is None
    with pytest.raises(EnumerationBudgetError, match="k_fine <= 20; got n=44, k_fine=21"):
        decode_ml(code, BitVector.zeros(44), 0.1)


def test_table_decode_past_fine_code_budget_equals_enumeration(monkeypatch):
    # k_fine = 21 is past MAX_ENUM_K_FINE, but the table has 2^6 syndromes
    # (44 of them tied); only the reference scan needs the budget raised.
    code = _random_code("table-k21", 27, 21, 17)
    rng = _rng("table-k21-y")
    ys = [BitVector(code.n, rng.next_bits(code.n)) for _ in range(64)]
    decoded = [decode_ml(code, y, 0.1) for y in ys]
    assert code._leader_table.ties and "_fine_words" not in code.__dict__
    monkeypatch.setattr(coset, "MAX_ENUM_K_FINE", 21)
    assert decoded == [_enum_decode_ml(code, y, 0.1) for y in ys]


def test_table_decode_serves_long_high_rate_code():
    # (40, 30, 20): a radius-3 table of 2^10 syndromes, 2^30 fine-code words.
    code = _random_code("table-k30", 40, 30, 20)
    assert code._leader_table.radius == 3
    rng = _rng("table-k30-msg")
    for _ in range(20):
        s = BitVector(code.k_msg, rng.next_bits(code.k_msg))
        assert decode_ml(code, encode(code, s, rng), 0.05) == s


@pytest.mark.parametrize("n", [64, 65])
def test_enumeration_budget_rejects_unpackable_length(n):
    # k_fine = 2 is within budget; n does not fit the uint64 word packing.
    code = CosetCode(BitMatrix.identity(n), n - 2, 2)
    with pytest.raises(EnumerationBudgetError, match=f"n={n}"):
        code._fine_words
    with pytest.raises(EnumerationBudgetError, match=f"n={n}"):
        decode_ml(code, BitVector.zeros(n), 0.1)
    with pytest.raises(EnumerationBudgetError, match=f"n={n}"):
        monte_carlo_equivocation(code, Bsc(0.1), 10, _rng("budget-n"))


# --- exact equivocation ------------------------------------------------------


def test_exact_equivocation_example1():
    report = exact_equivocation(example1_code(), Bsc(0.25))
    assert abs(report.equivocation - EXAMPLE1_EQUIVOCATION) < 1e-12
    assert abs(report.equivocation - 0.954) < 1e-3
    assert report.method == "exact"
    assert report.stderr == 0.0
    assert report.rate == 0.5


def test_exact_equivocation_half_noise_is_perfect():
    for code in (example1_code(), _hamming_coset_code()):
        assert exact_equivocation(code, Bsc(0.5)).equivocation == 1.0


def test_exact_equivocation_noiseless_leaks_everything():
    assert exact_equivocation(example1_code(), Bsc(0.0)).equivocation == 0.0


def test_exact_equivocation_uncoded_baseline():
    for p_w in (0.1, 0.25, 0.4):
        report = exact_equivocation(uncoded_code(1), Bsc(p_w))
        assert abs(report.equivocation - binary_entropy(p_w)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(code=_small_codes(max_n=14), p=REFERENCE_P)
@_reference_examples
def test_exact_equivocation_matches_transform_reference(code, p):
    reference = checks.syndrome_equivocation(code.h.row_words, code.zero_len, code.msg_len, p)
    assert abs(exact_equivocation(code, Bsc(p)).equivocation - reference) <= checks.EXACT_TOL


def test_exact_equivocation_monotone_in_crossover():
    code = _random_code("mono", 10, 6, 3)
    values = [
        exact_equivocation(code, Bsc(p)).equivocation
        for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_exact_equivocation_budget():
    budget = "n - k_coarse <= 24 syndrome rows; got 25 rows"
    with pytest.raises(EnumerationBudgetError, match=budget):
        exact_equivocation(uncoded_code(25), Bsc(0.1))


def test_exact_equivocation_serves_length_past_word_packing():
    # 50 zero columns take n to 70, past a packed uint64 word; exact's columns
    # are Python ints and a zero column never moves the syndrome, so only the
    # rate differs from the unpadded code's row.
    code = _random_code("pad-70", 20, 10, 4)
    padded = CosetCode(BitMatrix.from_row_words(code.h.row_words, 70), code.zero_len, code.msg_len)
    for p in (0.0, 1e-300, 0.1, 0.3, 0.5):
        report = replace(exact_equivocation(padded, Bsc(p)), rate=code.rate)
        assert report.to_csv_row() == exact_equivocation(code, Bsc(p)).to_csv_row()


def _xor_fold(w, masks, a, b):
    """w[u] <- a * w[u] + b * w[u ^ m] for each nonzero mask m in turn."""
    indices = np.arange(len(w), dtype=np.int64)
    flipped = np.empty_like(indices)
    for m in masks:
        if m:
            np.bitwise_xor(indices, m, out=flipped)
            w = a * w + b * w[flipped]
    return w


def _column_loop_exact(code, p):
    """Exact equivocation with every step of the noise pushforward and of the
    message fold taken over all 2^(n - k_coarse) syndromes in h's own basis:
    the form the relabelled pushforward replaced, kept as its reference."""
    w = np.zeros(1 << code.h.rows, dtype=float)
    w[0] = 1.0
    w = _xor_fold(w, code._columns, 1.0 - p, p)
    t = _xor_fold(w, [1 << j for j in range(code.zero_len, code.h.rows)], 1.0, 1.0)
    delta = (_entropy_bits(w) - _entropy_bits(t) / (1 << code.k_msg)) / code.k_msg
    return EquivocationReport(min(max(delta, 0.0), 1.0), code.rate, math.nan, "exact", 0.0)


# Column 1 is zero, and column 2 repeats column 0 before the last pivot, column 3.
ZERO_COLUMN_CODE = CosetCode(
    BitMatrix.from_rows([[1, 0, 1, 0], [0, 0, 0, 1]]), zero_len=1, msg_len=1
)


@settings(max_examples=200, deadline=None)
@given(
    code=st.one_of(_small_codes(max_n=14), st.sampled_from([ZERO_COLUMN_CODE, uncoded_code(3)])),
    p=st.one_of(st.sampled_from([0.0, 1e-300, 1e-30, 0.5]), st.floats(0.0, 0.5)),
)
@example(code=ZERO_COLUMN_CODE, p=1e-300)
@example(code=_hamming_full_message_code(), p=1e-30)  # k_coarse = 0
@example(code=_hamming_coset_code(), p=0.0)
def test_exact_equivocation_equals_column_loop_reference(code, p):
    # p = 0 and 1e-300 leave zero and underflowed weights; any change in the
    # float work, or in its order, moves a digit of the row.
    reference = _column_loop_exact(code, p)
    assert exact_equivocation(code, Bsc(p)).to_csv_row() == reference.to_csv_row()


# `report.to_csv_row()` of exact equivocation on the codes of the pinned MC
# rows below, printed by the column-by-column syndrome pushforward.  p = 1e-300
# keeps the p * w terms that underflow; any reordering of the float work moves
# a digit here.
@pytest.mark.parametrize(
    "label, shape, rows",
    [
        (
            "pin-k8",
            (24, 8, 4),
            (
                "0,0.16666666666666666,nan,exact,0",
                "1.3580773062177743e-312,0.16666666666666666,nan,exact,0",
                "0.63190849759117418,0.16666666666666666,nan,exact,0",
                "1,0.16666666666666666,nan,exact,0",
            ),
        ),
        (
            "pin-k16",
            (24, 16, 8),
            (
                "0,0.33333333333333331,nan,exact,0",
                "2.5000000000047377e-301,0.33333333333333331,nan,exact,0",
                "0.95666353251696834,0.33333333333333331,nan,exact,0",
                "1,0.33333333333333331,nan,exact,0",
            ),
        ),
    ],
)
def test_exact_equivocation_pinned_rows(label, shape, rows):
    code = _random_code(label, *shape)
    for p, row in zip((0.0, 1e-300, P_W_PIN, 0.5), rows):
        assert exact_equivocation(code, Bsc(p)).to_csv_row() == row


def test_exact_equivocation_no_message_bits():
    code = CosetCode(BitMatrix.identity(2), zero_len=2, msg_len=0)
    with pytest.raises(ValueError):
        exact_equivocation(code, Bsc(0.1))


# --- Monte Carlo equivocation ------------------------------------------------


def test_monte_carlo_example1():
    report = monte_carlo_equivocation(example1_code(), Bsc(0.25), 10_000, _rng("mc-ex1"))
    # The per-sample entropy is constant for this code, so the stderr is at
    # float-noise level; allow an absolute accumulation floor.
    assert abs(report.equivocation - EXAMPLE1_EQUIVOCATION) <= 3 * report.stderr + 1e-12
    assert report.method == "monte-carlo"


def test_monte_carlo_noiseless():
    report = monte_carlo_equivocation(example1_code(), Bsc(0.0), 500, _rng("mc-0"))
    assert report.equivocation == 0.0
    assert report.stderr == 0.0


def test_monte_carlo_agrees_with_exact():
    code = _random_code("mc-agree", 12, 8, 4)
    exact = exact_equivocation(code, Bsc(0.2)).equivocation
    report = monte_carlo_equivocation(code, Bsc(0.2), 10_000, _rng("mc-agree-rng"))
    assert report.stderr > 0
    assert abs(report.equivocation - exact) <= 3 * report.stderr


def test_monte_carlo_stderr_scales_inverse_sqrt():
    code = _random_code("mc-scale", 10, 6, 3)
    small = monte_carlo_equivocation(code, Bsc(0.2), 1000, _rng("mc-s"))
    large = monte_carlo_equivocation(code, Bsc(0.2), 4000, _rng("mc-l"))
    ratio = small.stderr / large.stderr
    assert abs(ratio - 2.0) < 0.6  # within 30% of the 1/sqrt(n) prediction


def test_monte_carlo_deterministic_per_worker_count():
    code = _random_code("mc-det", 10, 6, 3)
    for workers in (1, 3):
        a = monte_carlo_equivocation(code, Bsc(0.2), 600, _rng("mc-seed"), workers=workers)
        b = monte_carlo_equivocation(code, Bsc(0.2), 600, _rng("mc-seed"), workers=workers)
        assert a == b


# Seeded rows frozen from the per-sample posterior that the batched one
# replaced: each string is `report.to_csv_row()` of the call beside it, printed
# by the loop implementation (p**d over the fine code per sample) before the
# weight table and batches went in.  Any change to the draws, their order or
# the posterior arithmetic moves a digit here.
P_W_PIN = 0.23975006109347674


def test_monte_carlo_pinned_rows():
    k16 = _random_code("pin-k16", 24, 16, 8)
    report = monte_carlo_equivocation(k16, Bsc(P_W_PIN), 600, _rng("pin-k16-mc"))
    assert report.to_csv_row() == (
        "0.95781489924588903,0.33333333333333331,nan,monte-carlo,0.00061245593404597753"
    )
    k8 = _random_code("pin-k8", 24, 8, 4)
    for workers, row in (
        (1, "0.62562973362076602,0.16666666666666666,nan,monte-carlo,0.0099478266216045143"),
        (3, "0.61870870785199106,0.16666666666666666,nan,monte-carlo,0.010305653864042983"),
    ):
        report = monte_carlo_equivocation(
            k8, Bsc(P_W_PIN), 400, _rng("pin-k8-mc"), workers=workers
        )
        assert report.to_csv_row() == row
    for p, row in (
        (0.25, "0.95443400292496472,0.5,nan,monte-carlo,1.0537770608914911e-17"),
        (0.0, "0,0.5,nan,monte-carlo,0"),
    ):
        report = monte_carlo_equivocation(example1_code(), Bsc(p), 1000, _rng("pin-ex1-mc"))
        assert report.to_csv_row() == row


def _assert_posterior_equals_loop_reference(code, p, rows, budgets):
    d = np.arange(code.n + 1, dtype=float)
    table = p**d * (1.0 - p) ** (code.n - d)
    with np.errstate(invalid="ignore"):  # 0/0 rows when every likelihood underflows
        reference = [_loop_posterior_entropy_bits(code, z, p) for z in rows]
        for words in budgets:
            with mock.patch.object(coset, "_POSTERIOR_BATCH_WORDS", words):
                batched = _posterior_entropy_bits(code, np.array(rows, dtype=np.uint64), table)
            assert batched.tolist() == reference, words


@settings(max_examples=150, deadline=None)
@given(
    code=_small_codes(),
    p=st.sampled_from([0.0, 1e-300, 0.01, 0.2, 0.5]),
    data=st.data(),
)
def test_batched_posterior_equals_loop_reference(code, p, data):
    # 0.0 and 1e-300 give posteriors with zero entries (1e-300 by underflow),
    # which take the per-row fallback.  Budgets of 1, 3 and 37 words split a
    # sample into runs of messages, ragged where 37 >> k_coarse does not
    # divide 2^k_msg, and a run is one message once 2^k_coarse passes them.
    rows = data.draw(st.lists(st.integers(0, (1 << code.n) - 1), min_size=1, max_size=300))
    _assert_posterior_equals_loop_reference(
        code, p, rows, (coset._POSTERIOR_BATCH_WORDS, 1, 3, 37)
    )


@pytest.mark.parametrize("p", [0.0, 1e-300, 0.05, 0.3])
def test_posterior_runs_of_one_message_at_default_budget(p):
    # 2^k_coarse = 2^16 words per message passes the default budget, so each
    # sample is walked one message at a time.
    code = _random_code("run-k16", 20, 18, 16)
    assert coset._POSTERIOR_BATCH_WORDS >> code.k_coarse == 0
    stream = _rng("run-k16-rows")
    rows = [0, (1 << 20) - 1, int(code._fine_words[5])] + [stream.next_bits(20) for _ in range(5)]
    _assert_posterior_equals_loop_reference(code, p, rows, (coset._POSTERIOR_BATCH_WORDS,))


def test_posterior_working_memory_bounded_by_budget():
    # A (24, 20, 10) code has 2^20 fine-code words, 32 times the budget; a
    # posterior that held a sample's likelihoods at once would trace >= 8 MB.
    code = _random_code("mem-k20", 24, 20, 10)
    code._fine_words  # the cached 8 MB table is the code's, not the call's
    bound = 4 * (2 * 8 * coset._POSTERIOR_BATCH_WORDS)  # two 8-byte buffers, 4x slack
    tracemalloc.start()
    try:
        monte_carlo_equivocation(code, Bsc(0.2), 8, _rng("mem-k20-mc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(code=_small_codes(), p=st.floats(0.05, 0.45))
def test_monte_carlo_within_four_stderr_of_exact(code, p):
    exact = exact_equivocation(code, Bsc(p)).equivocation
    report = monte_carlo_equivocation(code, Bsc(p), 2000, _rng("prop-mc"))
    # A code whose per-sample entropy is constant has a stderr at float-noise
    # level; the 1e-12 floor covers the summation error of the two methods.
    assert abs(report.equivocation - exact) <= 4 * report.stderr + 1e-12


@settings(max_examples=100, deadline=None)
@given(code=_small_codes(max_n=14), p=REFERENCE_P)
@_reference_examples
def test_monte_carlo_rows_equal_syndrome_weight_posteriors(code, p):
    # z = x ^ e with x in message s's coset, so P(s | z) is proportional to
    # W[syndrome(z) ^ (s << zero_len)], W the noise's syndrome weights that
    # exact sums and the transform checks.  Each sampled row's entropy, and
    # the report's mean of them, must match that posterior's.
    w = coset._syndrome_weights(code, p)
    shifts = np.arange(1 << code.k_msg) << code.zero_len
    z = coset._sample_outputs(code, p, 40, _rng("mc-rows"), 1)
    reference = []
    for bits in z.tolist():
        weights = w[row_parities(code.h.row_words, bits) ^ shifts]
        posterior = weights[weights > 0] / weights.sum()
        reference.append(-float((posterior * np.log2(posterior)).sum()))
    d = np.arange(code.n + 1, dtype=float)
    rows = _posterior_entropy_bits(code, z, p**d * (1.0 - p) ** (code.n - d))
    assert np.abs(rows - reference).max() <= checks.EXACT_TOL
    report = monte_carlo_equivocation(code, Bsc(p), 40, _rng("mc-rows"))
    assert abs(report.equivocation - np.mean(reference) / code.k_msg) <= checks.EXACT_TOL


def _per_sample_outputs(code, p, samples, rng, workers):
    """Eavesdropper outputs drawn one sample at a time, three stream calls each:
    the sampler the block draws replaced, kept as their reference."""
    words = code._fine_words
    base, extra = divmod(samples, workers)
    for worker in range(workers):
        stream = rng.substream(f"worker-{worker}")
        for _ in range(base + (1 if worker < extra else 0)):
            s = stream.next_bits(code.k_msg)
            x = int(words[(s << code.k_coarse) | stream.next_bits(code.k_coarse)])
            yield x ^ stream.bernoulli_word(code.n, p)


@settings(max_examples=150, deadline=None)
@given(
    code=_small_codes(),
    p=st.sampled_from([0.0, 1e-300, 0.01, 0.2, 0.5]),
    samples=st.integers(1, 300),
    workers=st.integers(1, 5),
)
@example(code=_hamming_full_message_code(), p=0.2, samples=300, workers=1)  # k_coarse = 0
def test_block_sampler_equals_per_sample_reference(code, p, samples, workers):
    # A block holds 2^16 // (k_fine + 32n) samples, 165..1985 here, so a call
    # can end mid-block, and workers can outnumber samples.
    outputs = coset._sample_outputs(code, p, samples, _rng("sampler"), workers)
    reference = _per_sample_outputs(code, p, samples, _rng("sampler"), workers)
    assert outputs.tolist() == list(reference)


def test_block_sampler_equals_reference_across_blocks():
    code = _random_code("pin-k8", 24, 8, 4)  # 84 samples a block
    for workers in (1, 3):
        outputs = coset._sample_outputs(code, P_W_PIN, 1000, _rng("sampler-k8"), workers)
        reference = _per_sample_outputs(code, P_W_PIN, 1000, _rng("sampler-k8"), workers)
        assert outputs.tolist() == list(reference)


class _FixedBits(PrngStream):
    """Stream whose bits are those of `bits`, LSB first; each substream restarts them."""

    def __init__(self, bits):
        super().__init__(b"")
        self._bits = bits

    def next_bits(self, count):
        out, self._bits = self._bits & ((1 << count) - 1), self._bits >> count
        return out

    def substream(self, label):
        return _FixedBits(self._bits)


def test_block_sampler_threshold_boundary():
    # Noise chunks one below, at and one above the threshold: only the first
    # sets a noise bit, in the block sampler as in bernoulli_word.
    code = example1_code()  # two stream bits [s | c], then two noise chunks
    threshold = round(0.25 * 2**32)
    bits = pos = 0
    for j in range(12):
        for field, width in ((j & 1, 1), ((j >> 1) & 1, 1), (threshold - 1 + j % 3, 32),
                             (threshold - 1 + (j + 1) % 3, 32)):
            bits |= field << pos
            pos += width
    outputs = coset._sample_outputs(code, 0.25, 12, _FixedBits(bits), 2)
    reference = _per_sample_outputs(code, 0.25, 12, _FixedBits(bits), 2)
    assert outputs.tolist() == list(reference)


def _chi_square_gof(observed, expected):
    """Pearson's statistic and degrees of freedom, cells with expected count
    below 5 pooled into one."""
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0.0
    return float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum()), int(keep.sum()) - 1


@pytest.mark.parametrize(
    "code, p",
    [(_random_code("gof-9", 12, 7, 3), 0.1), (_random_code("gof-10", 10, 6, 0), 0.25),
     (_hamming_coset_code(), 0.05)],
)
def test_sampler_syndromes_fit_exact_fold(code, p):
    # A sample's syndrome is [0 || s] ^ (noise syndrome), s uniform, so u has
    # probability T[u mod 2^zero_len] / 2^k_msg, T being exact's message fold
    # of the noise's syndrome weights.  Pearson's test at a level fixed before
    # the run, alpha = 1e-3, critical value by the Wilson-Hilferty cube root.
    samples = 20_000
    fold = coset._syndrome_weights(code, p).reshape(1 << code.k_msg, -1).sum(axis=0)
    expected = samples * np.tile(fold, 1 << code.k_msg) / (1 << code.k_msg)
    outputs = coset._sample_outputs(code, p, samples, _rng("gof"), 1).tolist()
    syndromes = [row_parities(code.h.row_words, z) for z in outputs]
    observed = np.bincount(syndromes, minlength=1 << code.h.rows)
    stat, dof = _chi_square_gof(observed, expected)
    z = NormalDist().inv_cdf(1.0 - 1e-3)
    critical = dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3
    assert stat < critical, (stat, dof, critical)


class _CountingRng:
    """A stream that counts the worker substreams derived from it."""

    def __init__(self, label):
        self.rng = _rng(label)
        self.substreams = 0

    def substream(self, label):
        self.substreams += 1
        return self.rng.substream(label)


@pytest.mark.parametrize("workers, samples", [(10**6, 3), (5, 2), (2, 5), (3, 3)])
def test_workers_without_samples_derive_no_substream(workers, samples):
    rng = _CountingRng("lazy-workers")
    report = monte_carlo_equivocation(example1_code(), Bsc(0.2), samples, rng, workers)
    assert rng.substreams == min(workers, samples)
    if workers > samples:
        assert report == monte_carlo_equivocation(
            example1_code(), Bsc(0.2), samples, _rng("lazy-workers"), samples
        )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    code=_small_codes(),
    p=st.sampled_from([0.0, 1e-300, 0.05, 0.3, 0.5]),
    workers=st.sampled_from([1, 2]),
)
@example(code=_random_code("batch-k8", 12, 8, 4), p=1e-300, workers=2)
@example(code=_hamming_coset_code(), p=0.0, workers=1)
def test_monte_carlo_rows_independent_of_posterior_batch(code, p, workers):
    # A batch with a zero posterior entry in any row takes the per-row
    # fallback; for a row without one, the fallback and the batched sum give
    # the same bits, so where the batches split moves no digit of the row.
    rows = set()
    for words in (1, 3, 37, 1 << 14, 1 << 22):
        with mock.patch.object(coset, "_POSTERIOR_BATCH_WORDS", words):
            report = monte_carlo_equivocation(code, Bsc(p), 150, _rng("batch-mc"), workers)
        rows.add(report.to_csv_row())
    assert len(rows) == 1


def test_monte_carlo_budget_and_validation():
    with pytest.raises(EnumerationBudgetError):
        monte_carlo_equivocation(uncoded_code(22), Bsc(0.1), 10, _rng("mc-budget"))
    with pytest.raises(ValueError):
        monte_carlo_equivocation(example1_code(), Bsc(0.1), 0, _rng("mc-zero"))


# --- block error rate ----------------------------------------------------------


class BlockErrorEstimate(NamedTuple):
    """Block error point estimate with a two-sided 95% normal interval."""

    estimate: float
    ci_low: float
    ci_high: float


def block_error_rate(code, main, trials, rng):
    """Fraction of (random message, ML decode) trials over BSC(main.p) that fail."""
    errors = 0
    for _ in range(trials):
        s = BitVector(code.k_msg, rng.next_bits(code.k_msg))
        x = encode(code, s, rng)
        y = BitVector(code.n, x.bits ^ rng.bernoulli_word(code.n, main.p))
        if decode_ml(code, y, main.p) != s:
            errors += 1
    estimate = errors / trials
    half = 1.96 * math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    return BlockErrorEstimate(
        estimate, max(estimate - half, 0.0), min(estimate + half, 1.0)
    )


def test_block_error_rate_noiseless():
    code = _hamming_coset_code()
    result = block_error_rate(code, Bsc(0.0), 200, _rng("ber-0"))
    assert result.estimate == 0.0


def test_block_error_rate_hamming_formula():
    # Message = codeword for this code, so failures are exactly the weight>=2
    # noise patterns: 1 - (1-p)^7 - 7p(1-p)^6.
    code = _hamming_full_message_code()
    p = 0.01
    expected = 1 - (1 - p) ** 7 - 7 * p * (1 - p) ** 6
    trials = 5000
    result = block_error_rate(code, Bsc(p), trials, _rng("ber-ham"))
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(result.estimate - expected) <= 4 * sigma
    assert result.ci_low <= result.estimate <= result.ci_high


def test_block_error_rate_useless_channel():
    # At p = 1/2 decoding is independent of the message: error ~ 1 - 2^-k_msg.
    code = _hamming_coset_code()  # k_msg = 2
    trials = 2000
    result = block_error_rate(code, Bsc(0.5), trials, _rng("ber-half"))
    expected = 1 - 2.0**-2
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(result.estimate - expected) <= 4 * sigma


def test_block_error_rate_pinned():
    # Printed by the fine-code scan before the coset-leader table replaced it.
    lpn_code = registered_code(28, 8)
    assert block_error_rate(lpn_code, Bsc(0.05), 2000, _rng("ber-pin-lpn")) == (
        0.118, 0.1038610756844801, 0.1321389243155199
    )
    tied = _random_code("ber-pin-code", 20, 12, 4)
    assert tied._leader_table.ties
    assert block_error_rate(tied, Bsc(0.05), 1000, _rng("ber-pin-ties")) == (
        0.135, 0.11381975354251042, 0.1561802464574896
    )


def _exact_block_error(code, p):
    """1 - P(correct) of table decoding over BSC(p), for a table without ties.

    Noise e decodes right exactly when its message bits equal those of the
    leader of its zero-block syndrome s0, so P(correct) is the sum over s0 of
    exact's syndrome weight W[s0 || msg(leader(s0))]."""
    table = code._leader_table
    assert not table.ties
    msg_rows = code.h.row_words[code.zero_len :]
    index = [
        s0 | row_parities(msg_rows, int(e)) << code.zero_len for s0, e in enumerate(table.leaders)
    ]
    return 1.0 - float(coset._syndrome_weights(code, p)[index].sum())


def test_block_error_rate_matches_exact_pushforward():
    # The LPN code's table is tie-free, so one pushforward gives its block error.
    code = registered_code(28, 8)
    exact = _exact_block_error(code, 0.05)
    assert exact == pytest.approx(0.12239910689465439, rel=1e-12)
    result = block_error_rate(code, Bsc(0.05), 20_000, _rng("ber-exact-lpn"))
    assert result.ci_low <= exact <= result.ci_high


# --- serialization -------------------------------------------------------------


def test_code_text_roundtrip():
    for code in (example1_code(), _hamming_coset_code(), _random_code("ser", 11, 6, 2)):
        text = code_to_text(code)
        back = code_from_text(text)
        assert back == code
        header = text.splitlines()[0]
        assert header == f"{code.n},{code.k_fine},{code.k_coarse}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(code=_small_codes(max_n=24))
def test_code_text_roundtrip_property(code):
    assert code_from_text(code_to_text(code)) == code


def test_code_text_rejects_inconsistent_header():
    code = _hamming_coset_code()
    lines = code_to_text(code).splitlines()
    bad = f"8,{code.k_fine},{code.k_coarse}\n{lines[1]}\n"
    with pytest.raises(ValueError):
        code_from_text(bad)


@pytest.mark.parametrize("header", ["2,1,0,9", "2,1", "2,x,0", "2,-1,0"])
def test_code_text_bad_header_is_quoted(header):
    with pytest.raises(ValueError, match=f"bad header '{header}'"):
        code_from_text(f"{header}\n1,2:03\n")
