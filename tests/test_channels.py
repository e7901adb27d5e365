import math
import re

import pytest

from wiretaplab.channels import (
    AwgnSplitChannel,
    Bsc,
    Quantizer,
    bsc_concatenate,
    bsc_transmit,
    crossover_probabilities,
    default_half_range,
    degrading_channel,
    normal_cdf,
    quantize,
    transmit,
    uniform_quantizer,
)
from wiretaplab.coset import decode_ml, example1_code, params_from_channel
from wiretaplab.gf2 import BitVector
from wiretaplab.infometrics import equivocation_loss, secrecy_capacity_bsc
from wiretaplab.prng import prng_stream

# Phi(-1) and Phi(-1/sqrt(2)) from the standard normal CDF.
P_UNIT = 0.15865525393145707
P_W_UNIT = 0.23975006109347674


def _rng(label):
    return prng_stream(b"channel-test-seed", label)


def test_crossover_equal_variances_zero_extra():
    p, p_w = crossover_probabilities(AwgnSplitChannel(1.0, 0.0))
    assert p == p_w
    assert abs(p - P_UNIT) < 1e-12


def test_crossover_unit_unit():
    p, p_w = crossover_probabilities(AwgnSplitChannel(1.0, 1.0))
    assert abs(p - P_UNIT) < 1e-12
    assert abs(p_w - P_W_UNIT) < 1e-12
    assert p < p_w < 0.5


def test_crossover_vanishing_main_noise():
    p, p_w = crossover_probabilities(AwgnSplitChannel(1e-2, 0.0))
    assert p < 1e-20
    p0, _ = crossover_probabilities(AwgnSplitChannel(0.0, 1.0))
    assert p0 == 0.0


def test_normal_cdf_keeps_lower_tail_digits():
    # Phi(-10) to 17 digits; 0.5 * (1 + erf(x / sqrt 2)) cancels to 0.0 here.
    assert abs(normal_cdf(-10.0) / 7.6198530241605260e-24 - 1.0) < 1e-14
    p, _ = crossover_probabilities(AwgnSplitChannel(0.01, 0.0))
    assert p == normal_cdf(-10.0)


def test_crossover_monotone_in_wiretap_noise():
    last = 0.0
    for sw2 in (0.1, 0.5, 1.0, 4.0, 16.0):
        p, p_w = crossover_probabilities(AwgnSplitChannel(1.0, sw2))
        assert abs(p - P_UNIT) < 1e-12  # main leg unaffected
        assert p_w > last
        last = p_w


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_awgn_split_channel_rejects_non_finite_or_negative(bad):
    with pytest.raises(ValueError, match=f"sigma_m_sq must be finite and >= 0, got {bad!r}"):
        AwgnSplitChannel(bad, 1.0)
    with pytest.raises(ValueError, match=f"sigma_w_sq must be finite and >= 0, got {bad!r}"):
        AwgnSplitChannel(1.0, bad)


def test_bsc_concatenate_identity_and_absorbing():
    assert bsc_concatenate(0.3, 0.0) == 0.3
    assert bsc_concatenate(0.3, 0.5) == 0.5
    assert abs(bsc_concatenate(0.1, 0.1) - 0.18) < 1e-15


def test_bsc_concatenate_symmetric_in_range():
    rng = _rng("concat")
    for _ in range(100):
        a = rng.next_bits(20) / (1 << 21)
        b = rng.next_bits(20) / (1 << 21)
        out = bsc_concatenate(a, b)
        assert out == bsc_concatenate(b, a)
        assert 0.0 <= out <= 0.5


def test_bsc_concatenate_rejects_out_of_range():
    with pytest.raises(ValueError):
        bsc_concatenate(0.7, 0.1)


def test_degrading_channel_inverse_of_concat():
    assert abs(degrading_channel(0.1, 0.18).p - 0.1) < 1e-12
    assert degrading_channel(0.3, 0.3).p == 0.0


def test_degrading_channel_unit_operating_point():
    bsc = degrading_channel(P_UNIT, P_W_UNIT)
    assert abs(bsc.p - 0.11878724968823105) < 1e-12
    assert abs(bsc_concatenate(P_UNIT, bsc.p) - P_W_UNIT) < 1e-12


def test_degrading_channel_roundtrip_random():
    rng = _rng("roundtrip")
    for _ in range(200):
        p = rng.next_bits(20) / (1 << 21)
        p_y = rng.next_bits(20) / (1 << 21)
        p_w = bsc_concatenate(p, p_y)
        assert abs(degrading_channel(p, p_w).p - p_y) < 1e-12


def test_degrading_channel_rejects_ordering():
    with pytest.raises(ValueError):
        degrading_channel(0.2, 0.1)


def test_degrading_channel_rejects_half_noise_wiretap():
    with pytest.raises(ValueError, match="p_w must be < 1/2, got 0.5"):
        degrading_channel(0.1, 0.5)


@pytest.mark.parametrize("bad", [math.nan, -0.1, 0.6])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("p", lambda v: Bsc(v), id="Bsc"),
        pytest.param("p", lambda v: bsc_concatenate(v, 0.1), id="bsc_concatenate-p"),
        pytest.param("p_y", lambda v: bsc_concatenate(0.1, v), id="bsc_concatenate-p_y"),
        pytest.param("p", lambda v: degrading_channel(v, 0.3), id="degrading_channel-p"),
        pytest.param("p_w", lambda v: degrading_channel(0.1, v), id="degrading_channel-p_w"),
        pytest.param(
            "p", lambda v: decode_ml(example1_code(), BitVector.zeros(2), v), id="decode_ml"
        ),
        pytest.param("p", lambda v: secrecy_capacity_bsc(v, 0.3), id="secrecy_capacity_bsc-p"),
        pytest.param("p_w", lambda v: secrecy_capacity_bsc(0.1, v), id="secrecy_capacity_bsc-p_w"),
        pytest.param("p", lambda v: equivocation_loss(v, 0.3, 1.0), id="equivocation_loss-p"),
        pytest.param("p_w", lambda v: equivocation_loss(0.1, v, 1.0), id="equivocation_loss-p_w"),
        pytest.param("p", lambda v: params_from_channel(24, v, 0.3, 0.01), id="params_from_channel-p"),
        pytest.param(
            "p_w", lambda v: params_from_channel(24, 0.1, v, 0.01), id="params_from_channel-p_w"
        ),
    ],
)
def test_crossover_entry_points_reject_out_of_range(name, call, bad):
    # Every function that takes a BSC crossover shares one check and one message.
    message = f"crossover probability {name} must be in [0, 1/2], got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)


def test_transmit_noiseless_maps_symbols():
    x = BitVector.from_bits([0, 1, 1, 0])
    y, w = transmit(AwgnSplitChannel(0.0, 0.0), x, _rng("noiseless"))
    assert y == [-1.0, 1.0, 1.0, -1.0]
    assert w == y


def test_transmit_moments():
    n = 100_000
    rng = _rng("moments")
    x = BitVector(n, rng.next_bits(n))
    ch = AwgnSplitChannel(1.0, 1.0)
    y, w = transmit(ch, x, rng)
    symbols = [1.0 if x[i] else -1.0 for i in range(n)]
    main_noise = [yi - si for yi, si in zip(y, symbols)]
    total_noise = [wi - si for wi, si in zip(w, symbols)]
    mean = sum(main_noise) / n
    assert abs(mean) < 4 / math.sqrt(n)  # 4 sigma of the sample mean
    var_total = sum(v * v for v in total_noise) / n
    assert abs(var_total - 2.0) < 0.05 * 2.0


def test_bsc_transmit_noiseless():
    x = BitVector.from_bits([1, 0, 1])
    assert bsc_transmit(Bsc(0.0), x, _rng("bsc0")) == x


def test_bsc_transmit_flip_fractions():
    rng = _rng("bscflip")
    n = 100_000
    x = BitVector(n, rng.next_bits(n))
    for p in (0.5, 0.25):
        out = bsc_transmit(Bsc(p), x, rng)
        flips = (out.bits ^ x.bits).bit_count()
        assert abs(flips / n - p) < 0.01


def test_bsc_rejects_large_p():
    with pytest.raises(ValueError):
        Bsc(0.6)


def test_quantize_sign():
    q = Quantizer((0.0,))
    assert quantize(q, -0.3) == 0
    assert quantize(q, 0.3) == 1


def test_quantize_three_thresholds():
    q = Quantizer((-1.0, 0.0, 1.0))
    assert quantize(q, 0.3) == 2
    assert quantize(q, -5.0) == 0
    assert quantize(q, 5.0) == 3


def test_quantize_threshold_goes_to_lower_cell():
    q = Quantizer((-1.0, 0.0, 1.0))
    assert quantize(q, 0.0) == 1  # cell (−1, 0] owns its upper threshold
    assert quantize(q, -1.0) == 0
    assert quantize(q, 1.0) == 2
    assert quantize(Quantizer((0.0,)), 0.0) == 0


def test_quantizer_requires_ascending():
    with pytest.raises(ValueError):
        Quantizer((0.0, 0.0))


@pytest.mark.parametrize(
    "thresholds, index",
    [((math.nan,), 0), ((-1.0, math.nan, 1.0), 1), ((0.0, 1.0, math.nan), 2), ((math.nan, 0.0), 0)],
)
def test_quantizer_rejects_nan_threshold(thresholds, index):
    with pytest.raises(ValueError, match=f"threshold {index} is nan; thresholds must not be NaN"):
        Quantizer(thresholds)


def test_quantizer_accepts_infinite_thresholds():
    q = Quantizer((-math.inf, 0.0, math.inf))
    assert q.levels == 4
    assert quantize(q, -1e300) == 1
    assert quantize(q, 1e300) == 2


def test_uniform_quantizer_sign_case():
    assert uniform_quantizer(2, 123.0).thresholds == (0.0,)


def test_uniform_quantizer_endpoints():
    assert uniform_quantizer(4, 2.0).thresholds == (-2.0, 0.0, 2.0)
    assert uniform_quantizer(3, 1.0).thresholds == (-1.0, 1.0)


def test_uniform_quantizer_even_levels_exact_zero_and_symmetric():
    for variance in (0.06, 0.1, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0, 50.0):
        half_range = default_half_range(variance)
        for levels in range(4, 257, 2):
            t = uniform_quantizer(levels, half_range).thresholds
            assert t[(levels - 2) // 2] == 0.0, (variance, levels)
            assert all(t[i] == -t[levels - 2 - i] for i in range(levels - 1)), (variance, levels)


def test_uniform_quantizer_rejects_bad_args():
    with pytest.raises(ValueError):
        uniform_quantizer(1, 1.0)
    with pytest.raises(ValueError):
        uniform_quantizer(4, 0.0)


@pytest.mark.parametrize("levels", [2, 4])
@pytest.mark.parametrize("half_range", [math.nan, math.inf, -math.inf])
def test_uniform_quantizer_rejects_non_finite_half_range(levels, half_range):
    with pytest.raises(ValueError, match=f"half_range must be finite and > 0, got {half_range!r}"):
        uniform_quantizer(levels, half_range)


def test_refinement_determines_coarser_cells():
    coarse = uniform_quantizer(4, 2.0)
    fine = uniform_quantizer(6, 2.0)  # thresholds are a superset at 2L-2
    assert set(coarse.thresholds) <= set(fine.thresholds)
    rng = _rng("refine")
    mapping = {}
    for _ in range(2000):
        w = (rng.next_bits(20) / (1 << 20)) * 8.0 - 4.0
        f = quantize(fine, w)
        c = quantize(coarse, w)
        assert mapping.setdefault(f, c) == c


def test_sign_quantized_wiretap_stream_is_bsc_pw():
    n = 100_000
    rng = _rng("signbsc")
    x = BitVector(n, rng.next_bits(n))
    ch = AwgnSplitChannel(1.0, 1.0)
    _, w = transmit(ch, x, rng)
    sign = Quantizer((0.0,))
    flips = sum(1 for i in range(n) if quantize(sign, w[i]) != x[i])
    _, p_w = crossover_probabilities(ch)
    sigma = math.sqrt(p_w * (1 - p_w) / n)
    assert abs(flips / n - p_w) < 4 * sigma
