import math

import pytest

from wiretaplab.channels import Quantizer, default_half_range, uniform_quantizer
from wiretaplab import infometrics
from wiretaplab.infometrics import (
    DiscreteChannelSpec,
    QuadratureError,
    awgn_mutual_information,
    binary_entropy,
    equivocation_loss,
    loss_curve,
    max_equivocation_loss,
    mixture_density,
    mixture_entropy,
    mutual_information_discrete,
    quantized_mutual_information,
    quantizer_sweep,
    secrecy_capacity_bsc,
    secrecy_capacity_search,
)
from wiretaplab.prng import prng_stream

P_UNIT = 0.15865525393145707  # Phi(-1)
P_W_UNIT = 0.23975006109347674  # Phi(-1/sqrt(2))

# I(X;W) at total variance 2, frozen from an independent adaptive
# Gauss-Kronrod integration of the mixture-entropy integral.
I_XW_VAR2 = 0.29048011336081725
LOSS_UNIT = 0.5203843722844566


def _rng(label):
    return prng_stream(b"infometrics-seed!", label)


def _bsc_transition(p):
    return [[1 - p, p], [p, 1 - p]]


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_quarter():
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-15
    assert abs(binary_entropy(0.25) - 0.81) < 0.005  # the quoted two digits


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_mutual_information_bsc():
    spec = DiscreteChannelSpec((0.5, 0.5), _bsc_transition(0.25))
    assert abs(mutual_information_discrete(spec) - (1 - 0.8112781244591328)) < 1e-12


def test_mutual_information_independent_channel():
    spec = DiscreteChannelSpec((0.5, 0.5), [[0.3, 0.7], [0.3, 0.7]])
    assert mutual_information_discrete(spec) == 0.0


def test_mutual_information_noiseless():
    spec = DiscreteChannelSpec((0.5, 0.5), [[1.0, 0.0], [0.0, 1.0]])
    assert abs(mutual_information_discrete(spec) - 1.0) < 1e-12


def test_discrete_spec_validation():
    with pytest.raises(ValueError):
        DiscreteChannelSpec((0.5, 0.6), _bsc_transition(0.1))
    with pytest.raises(ValueError):
        DiscreteChannelSpec((0.5, 0.5), [[0.9, 0.2], [0.1, 0.9]])
    with pytest.raises(ValueError):
        DiscreteChannelSpec((0.5, 0.5), [[1.1, -0.1], [0.1, 0.9]])


def test_secrecy_capacity_noiseless_main():
    assert secrecy_capacity_bsc(0.0, 0.25) == binary_entropy(0.25)


def test_secrecy_capacity_equal_channels():
    assert secrecy_capacity_bsc(0.3, 0.3) == 0.0


def test_secrecy_capacity_unit_operating_point():
    c_s = secrecy_capacity_bsc(P_UNIT, P_W_UNIT)
    assert abs(c_s - 0.16354162521193161) < 1e-12


def test_secrecy_capacity_rejects_ordering():
    with pytest.raises(ValueError):
        secrecy_capacity_bsc(0.3, 0.2)


def test_search_matches_closed_form_on_bsc_pair():
    value, dist = secrecy_capacity_search(
        _bsc_transition(P_UNIT), _bsc_transition(P_W_UNIT), grid_step=1e-3
    )
    assert abs(value - secrecy_capacity_bsc(P_UNIT, P_W_UNIT)) < 1e-6
    assert abs(dist[1] - 0.5) < 2e-3


def test_search_identical_channels():
    value, _ = secrecy_capacity_search(_bsc_transition(0.1), _bsc_transition(0.1))
    assert abs(value) < 1e-12


def test_search_noiseless_main_useless_wiretap():
    value, dist = secrecy_capacity_search(
        [[1.0, 0.0], [0.0, 1.0]], _bsc_transition(0.5)
    )
    assert abs(value - 1.0) < 1e-9
    assert abs(dist[1] - 0.5) < 2e-3


def test_mixture_density_symmetry():
    rng = _rng("mix-sym")
    for _ in range(100):
        w = (rng.next_bits(20) / (1 << 20)) * 10 - 5
        assert mixture_density(2.0, w) == pytest.approx(mixture_density(2.0, -w), abs=1e-15)


def test_mixture_density_center_value():
    # Both mixture terms equal the standard normal density at 1.
    assert abs(mixture_density(1.0, 0.0) - 0.24197072451914337) < 1e-15


def test_mixture_density_normalizes():
    from wiretaplab.infometrics import _integrate

    for s2 in (0.5, 2.0, 9.0):
        sigma = math.sqrt(s2)
        top = 1 + 8 * sigma
        total = sum(
            _integrate(lambda w: mixture_density(s2, w), lo, hi, 2.5e-10)
            for lo, hi in ((-top, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, top))
        )
        assert abs(total - 1.0) < 1e-9


def test_awgn_mi_limits():
    assert awgn_mutual_information(1e4) < 1e-3
    assert awgn_mutual_information(1e-4) > 0.999


def test_awgn_mi_variance_two():
    assert abs(awgn_mutual_information(2.0) - I_XW_VAR2) < 1e-8
    assert 0.28 < awgn_mutual_information(2.0) < 0.30


def test_awgn_mi_monte_carlo_cross_check():
    # Independent estimate: sample W, average -log2 f(W) for the entropy.
    s2 = 2.0
    rng = _rng("mi-mc")
    n = 40_000
    values = []
    for _ in range(n):
        x = 1.0 if rng.next_bits(1) else -1.0
        w = x + math.sqrt(s2) * rng.gaussian()
        values.append(-math.log2(mixture_density(s2, w)))
    mean = sum(values) / n
    sem = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)
    mc_mi = mean - 0.5 * math.log2(2 * math.pi * math.e * s2)
    assert abs(mc_mi - awgn_mutual_information(s2)) < 4 * sem


def test_awgn_mi_tolerance_self_consistency():
    tol = 1e-9
    assert abs(
        awgn_mutual_information(2.0, tol) - awgn_mutual_information(2.0, tol / 2)
    ) < tol


def test_quadrature_depth_exhaustion_reports_estimate():
    with pytest.raises(QuadratureError) as info:
        mixture_entropy(2.0, tol=1e-300)
    assert math.isfinite(info.value.estimate)


def test_quantized_mi_sign_recovers_bsc():
    for s2 in (0.5, 1.0, 2.0, 5.0):
        from wiretaplab.channels import normal_cdf

        p_w = normal_cdf(-1.0 / math.sqrt(s2))
        got = quantized_mutual_information(s2, Quantizer((0.0,)))
        assert abs(got - (1.0 - binary_entropy(p_w))) < 1e-9


def test_quantized_mi_strictly_increases_with_refinement():
    coarse = quantized_mutual_information(2.0, uniform_quantizer(2, 9.0))
    fine = quantized_mutual_information(2.0, uniform_quantizer(256, 9.0))
    assert fine > coarse


def test_quantized_mi_converges_to_quadrature():
    q = uniform_quantizer(256, default_half_range(2.0))
    assert abs(quantized_mutual_information(2.0, q) - awgn_mutual_information(2.0)) < 1e-3


def test_data_processing_bound_random_quantizers():
    rng = _rng("dpi")
    limit = awgn_mutual_information(2.0)
    for _ in range(20):
        count = 1 + rng.next_bits(3)
        thresholds = sorted(
            {(rng.next_bits(16) / (1 << 16)) * 12 - 6 for _ in range(count)}
        )
        got = quantized_mutual_information(2.0, Quantizer(tuple(thresholds)))
        assert got <= limit + 1e-9


def test_threshold_superset_never_decreases_mi():
    rng = _rng("superset")
    for _ in range(20):
        base = sorted({(rng.next_bits(16) / (1 << 16)) * 8 - 4 for _ in range(3)})
        extra = sorted(set(base) | {(rng.next_bits(16) / (1 << 16)) * 8 - 4})
        coarse = quantized_mutual_information(2.0, Quantizer(tuple(base)))
        fine = quantized_mutual_information(2.0, Quantizer(tuple(extra)))
        assert fine >= coarse - 1e-12


def test_equivocation_loss_two_level_boundary():
    loss = equivocation_loss(P_UNIT, P_W_UNIT, 1.0 - binary_entropy(P_W_UNIT))
    assert abs(loss) < 1e-9


def test_equivocation_loss_main_channel_equivalent():
    loss = equivocation_loss(P_UNIT, P_W_UNIT, 1.0 - binary_entropy(P_UNIT))
    assert abs(loss - 1.0) < 1e-12


def test_equivocation_loss_unit_point_is_about_half():
    loss = equivocation_loss(P_UNIT, P_W_UNIT, awgn_mutual_information(2.0))
    assert abs(loss - LOSS_UNIT) < 1e-8
    assert abs(loss - 0.5) < 0.05


def test_equivocation_loss_monotone_in_information():
    lo = 1.0 - binary_entropy(P_W_UNIT)
    hi = 1.0 - binary_entropy(P_UNIT)
    last = -1.0
    for k in range(11):
        i = lo + (hi - lo) * k / 10
        loss = equivocation_loss(P_UNIT, P_W_UNIT, i)
        assert loss >= last
        last = loss


def test_equivocation_loss_domain_errors():
    with pytest.raises(ValueError):
        equivocation_loss(0.2, 0.2, 0.5)  # no denominator
    with pytest.raises(ValueError):
        equivocation_loss(0.3, 0.2, 0.5)
    with pytest.raises(ValueError):
        equivocation_loss(P_UNIT, P_W_UNIT, 0.1)  # below the two-level floor


def test_max_equivocation_loss_unit_point():
    loss = max_equivocation_loss(1.0, 1.0)
    assert abs(loss - LOSS_UNIT) < 1e-8
    assert abs(loss - 0.5) < 0.05


def test_max_equivocation_loss_decreases_with_wiretap_noise():
    assert max_equivocation_loss(1.0, 8.0) < max_equivocation_loss(1.0, 1.0)


def test_max_equivocation_loss_vanishing_advantage():
    # As the extra wiretap noise vanishes the loss saturates at one bit/bit.
    values = [max_equivocation_loss(1.0, sw2) for sw2 in (0.5, 0.2, 0.1, 0.05)]
    assert all(a <= b for a, b in zip(values[1:], values)) or values[-1] == 1.0
    assert values[-1] > 0.99
    assert max_equivocation_loss(1.0, 0.01) == 1.0


def test_max_equivocation_loss_requires_positive_variances():
    with pytest.raises(ValueError):
        max_equivocation_loss(1.0, 0.0)


def test_loss_curve_single_point():
    (pt,) = loss_curve(1.0, [1.0])
    assert abs(pt.loss - LOSS_UNIT) < 1e-8
    assert abs(pt.p - P_UNIT) < 1e-12
    assert abs(pt.p_w - P_W_UNIT) < 1e-12
    assert abs(pt.i_xw - I_XW_VAR2) < 1e-8


def test_loss_curve_strictly_decreasing():
    grid = [0.5 + 0.5 * i for i in range(16)]
    points = loss_curve(1.0, grid)
    losses = [pt.loss for pt in points]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert all(0.0 <= v <= 1.0 for v in losses)


def test_loss_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        loss_curve(1.0, [])
    with pytest.raises(ValueError):
        loss_curve(1.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        loss_curve(1.0, [-1.0, 1.0])


def test_quantizer_sweep_rows():
    rows = quantizer_sweep(1.0, 1.0, [2, 4, 8, 256])
    assert rows[0][2] == 0.0  # two-level row has zero loss
    last = -1.0
    for _, i_hat, loss in rows:
        assert loss >= last
        last = loss
    assert abs(rows[-1][2] - LOSS_UNIT) < 1e-3


def test_quantizer_sweep_rejects_odd_levels_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(
        infometrics, "quantized_mutual_information", lambda *a: calls.append(a) or 0.5
    )
    with pytest.raises(ValueError, match="odd level count 3: .*no threshold at 0"):
        quantizer_sweep(1.0, 1.0, [2, 4, 3])
    assert calls == []
