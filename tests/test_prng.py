import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab.prng import PrngStream, prng_stream

SEED = b"prng-test-seed-01"


def test_same_seed_and_label_identical():
    a = prng_stream(SEED, "x")
    b = prng_stream(SEED, "x")
    assert a.next_bits(256) == b.next_bits(256)
    assert a.next_bits(31) == b.next_bits(31)


def test_different_labels_diverge_early():
    a = prng_stream(SEED, "alpha")
    b = prng_stream(SEED, "beta")
    assert a.next_bits(128) != b.next_bits(128)


def test_different_seeds_diverge():
    a = prng_stream(b"0" * 16)
    b = prng_stream(b"1" * 16)
    assert a.next_bits(128) != b.next_bits(128)


def test_substream_deterministic_and_independent():
    base = prng_stream(SEED, "base")
    s1 = base.substream("r")
    s2 = prng_stream(SEED, "base").substream("r")
    assert s1.next_bits(128) == s2.next_bits(128)
    # Derivation is stateless: consuming the parent does not move substreams.
    base.next_bits(64)
    s3 = base.substream("u")
    s4 = prng_stream(SEED, "base").substream("u")
    assert s3.next_bits(128) == s4.next_bits(128)
    assert prng_stream(SEED, "base").substream("r").next_bits(128) != prng_stream(
        SEED, "base"
    ).substream("u").next_bits(128)


def test_short_seed_rejected():
    with pytest.raises(ValueError):
        prng_stream(b"too-short")


def test_next_bits_zero_consumes_nothing():
    a = prng_stream(SEED, "z")
    b = prng_stream(SEED, "z")
    assert a.next_bits(0) == 0
    assert a.next_bits(64) == b.next_bits(64)


def test_next_bits_width():
    rng = prng_stream(SEED, "width")
    for count in (1, 8, 33, 257):
        assert rng.next_bits(count) >> count == 0


def test_bernoulli_frequency():
    rng = prng_stream(SEED, "bern")
    draws = 100_000
    ones = sum(rng.bernoulli(0.25) for _ in range(draws))
    assert abs(ones / draws - 0.25) < 0.01


def test_bernoulli_extremes():
    rng = prng_stream(SEED, "extremes")
    assert all(rng.bernoulli(0.0) == 0 for _ in range(1000))
    assert all(rng.bernoulli(1.0) == 1 for _ in range(1000))
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)


def test_gaussian_moments():
    rng = prng_stream(SEED, "gauss")
    n = 10_000
    xs = [rng.gaussian() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    assert abs(mean) < 4 / n**0.5
    assert abs(var - 1.0) < 0.06


@settings(max_examples=200, deadline=None)
@given(lead=st.integers(0, 600), n=st.integers(0, 300), p=st.floats(0.0, 1.0))
def test_bernoulli_word_matches_single_draws(lead, n, p):
    word_rng = prng_stream(SEED, "word")
    single_rng = prng_stream(SEED, "word")
    word_rng.next_bits(lead)
    single_rng.next_bits(lead)
    word = word_rng.bernoulli_word(n, p)
    threshold = round(p * 2**32)
    assert word == sum((single_rng.next_bits(32) < threshold) << i for i in range(n))
    assert word_rng.next_bits(64) == single_rng.next_bits(64)
    assert [word_rng.bernoulli(p) for _ in range(n)] == [
        int(single_rng.next_bits(32) < threshold) for _ in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(lead=st.integers(0, 600), a=st.integers(0, 600), b=st.integers(0, 600))
def test_next_bits_split(lead, a, b):
    whole = prng_stream(SEED, "split")
    parts = prng_stream(SEED, "split")
    whole.next_bits(lead)
    parts.next_bits(lead)
    assert whole.next_bits(a + b) == parts.next_bits(a) | (parts.next_bits(b) << a)
    assert whole.next_bits(64) == parts.next_bits(64)


class _Chunks(PrngStream):
    """Stream whose 32-bit draws are the given values, in order."""

    def __init__(self, values):
        super().__init__(b"")
        self._values = list(values)

    def next_bits(self, count):
        drawn, self._values = self._values[: count // 32], self._values[count // 32 :]
        return sum(v << (32 * i) for i, v in enumerate(drawn))


def test_bernoulli_threshold_boundary():
    # Draws one below, at and one above round(p * 2**32): only the first is a 1.
    threshold = round(0.25 * 2**32)
    draws = (threshold - 1, threshold, threshold + 1)
    assert _Chunks(draws).bernoulli_word(3, 0.25) == 0b001
    single = _Chunks(draws)
    assert [single.bernoulli(0.25) for _ in draws] == [1, 0, 0]
