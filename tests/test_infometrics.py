import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiretaplab.channels import Quantizer, default_half_range, normal_cdf, uniform_quantizer
from wiretaplab import infometrics
from wiretaplab.infometrics import (
    awgn_mutual_information,
    binary_entropy,
    equivocation_loss,
    loss_curve,
    max_equivocation_loss,
    quantized_mutual_information,
    quantizer_sweep,
    secrecy_capacity_bsc,
)
from wiretaplab.prng import prng_stream

P_UNIT = 0.15865525393145707  # Phi(-1)
P_W_UNIT = 0.23975006109347674  # Phi(-1/sqrt(2))

# I(X;W) = 1 - E[log2(1 + exp(-2Y/s2))], Y ~ N(1, s2), by scipy.integrate.quad
# over t = (Y - 1)/sqrt(s2) on [-40, 40], split at Y = 0, with epsabs=1e-15 and
# epsrel=1e-13.
I_XW_REFERENCE = {
    0.03: 0.9999999829745585,
    0.06: 0.9999048834365716,
    0.1: 0.9967563279900297,
    0.3: 0.872413519841534,
    1.0: 0.48594415413293535,
    2.0: 0.2904801133608479,
    8.0: 0.08494340579418302,
    50.0: 0.014284558300406536,
    1e4: 7.213114554716071e-05,
}
I_XW_VAR2 = I_XW_REFERENCE[2.0]
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


def mutual_information_discrete(input_dist, transition):
    """I(input; output) = H(output) - H(output | input) in bits, for a finite
    channel given by its input distribution and row-stochastic P(out|in)."""
    input_dist = np.asarray(input_dist, dtype=float)
    transition = np.asarray(transition, dtype=float)
    entropy = infometrics._entropy_bits
    h_cond = sum(px * entropy(row) for px, row in zip(input_dist, transition))
    mi = entropy(input_dist @ transition) - h_cond
    assert mi >= -1e-12, f"negative mutual information: {mi}"
    return max(mi, 0.0)


def test_mutual_information_bsc():
    mi = mutual_information_discrete((0.5, 0.5), _bsc_transition(0.25))
    assert abs(mi - (1 - 0.8112781244591328)) < 1e-12


def test_mutual_information_independent_channel():
    assert mutual_information_discrete((0.5, 0.5), [[0.3, 0.7], [0.3, 0.7]]) == 0.0


def test_mutual_information_noiseless():
    assert abs(mutual_information_discrete((0.5, 0.5), [[1.0, 0.0], [0.0, 1.0]]) - 1.0) < 1e-12


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


def secrecy_capacity_search(main_transition, wiretap_transition, grid_step=1e-3):
    """Maximize I(X;Y) - I(X;Z) over Bernoulli(q) inputs on a binary alphabet.

    Sweeps q over a grid of the given step, then refines around the grid
    argmax with golden-section search.  Returns (capacity, input_dist).
    """

    def objective(q):
        dist = (1.0 - q, q)
        i_main = mutual_information_discrete(dist, main_transition)
        return i_main - mutual_information_discrete(dist, wiretap_transition)

    grid = [min(i * grid_step, 1.0) for i in range(int(1.0 / grid_step) + 1)]
    if grid[-1] < 1.0:
        grid.append(1.0)
    best_q = max(grid, key=objective)

    # Golden-section pass on the bracket around the grid winner.
    lo = max(0.0, best_q - grid_step)
    hi = min(1.0, best_q + grid_step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    q = (a + b) / 2.0
    candidates = [(objective(q), q), (fc, c), (fd, d), (objective(best_q), best_q)]
    value, q = max(candidates)
    return value, (1.0 - q, q)


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


def _mixture_log_density(s2, w):
    """Natural log of the density of W = X + N(0, s2) for uniform X on {-1, +1}."""
    sigma = math.sqrt(s2)
    a = -0.5 * ((w + 1.0) / sigma) ** 2
    b = -0.5 * ((w - 1.0) / sigma) ** 2
    return float(np.logaddexp(a, b)) - math.log(2.0 * sigma * math.sqrt(2.0 * math.pi))


def test_awgn_mi_limits():
    assert awgn_mutual_information(1e4) < 1e-3
    assert awgn_mutual_information(1e-4) > 0.999


def test_awgn_mi_variance_two():
    assert abs(awgn_mutual_information(2.0) - I_XW_VAR2) < 1e-13
    assert 0.28 < awgn_mutual_information(2.0) < 0.30


def test_awgn_mi_tolerance_self_consistency():
    tol = 1e-9
    assert abs(
        awgn_mutual_information(2.0, tol) - awgn_mutual_information(2.0, tol / 2)
    ) < tol


@pytest.mark.parametrize("s2", sorted(I_XW_REFERENCE))
def test_awgn_mi_matches_reference_table(s2):
    assert abs(awgn_mutual_information(s2) - I_XW_REFERENCE[s2]) < 1e-13


def test_awgn_mi_matches_scipy_entropy_integral():
    # A second identity, I = h(W) - h(W|X), integrated by scipy over w, on a
    # geometric grid and at sigma^2 = 2.
    integrate = pytest.importorskip("scipy.integrate")
    for s2 in [*np.geomspace(1e-3, 1e5, 25), 2.0]:
        s2 = float(s2)
        top = 1.0 + 40.0 * math.sqrt(s2)

        def neg_f_log_f(w):
            log_f = _mixture_log_density(s2, w)
            return -math.exp(log_f) * log_f

        h_w, _ = integrate.quad(
            neg_f_log_f, -top, top, points=[-1.0, 0.0, 1.0], epsabs=1e-15, epsrel=1e-13, limit=1000
        )
        reference = (h_w - 0.5 * math.log(2.0 * math.pi * math.e * s2)) / math.log(2.0)
        assert abs(awgn_mutual_information(s2) - reference) < 1e-13, s2


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_awgn_mi_meets_tolerance(tol):
    for s2, reference in I_XW_REFERENCE.items():
        assert abs(awgn_mutual_information(s2, tol) - reference) <= tol


@pytest.mark.parametrize("tol", [0.0, 1.0, -1e-9, 2.0, math.nan])
def test_awgn_mi_rejects_tolerance_outside_unit_interval(tol):
    with pytest.raises(ValueError, match="tol must be in"):
        awgn_mutual_information(2.0, tol)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_mi_rejects_bad_total_variance(bad):
    with pytest.raises(ValueError, match=f"sigma_tot_sq must be finite and > 0, got {bad!r}"):
        awgn_mutual_information(bad)
    with pytest.raises(ValueError, match=f"sigma_tot_sq must be finite and > 0, got {bad!r}"):
        quantized_mutual_information(bad, Quantizer((0.0,)))


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


def _loop_quantized_mi(sigma_tot_sq, q):
    """I(X; Z_q) from CDF differences, one 0.5 * (1 + erf) per threshold and
    symbol, through mutual_information_discrete: the form the tail pass
    replaced, kept as its reference."""
    sigma = math.sqrt(sigma_tot_sq)
    rows = []
    for x in (-1.0, 1.0):
        cdf = [0.0]
        cdf += [0.5 * (1.0 + math.erf((t - x) / sigma / math.sqrt(2.0))) for t in q.thresholds]
        cdf.append(1.0)
        rows.append([hi - lo for lo, hi in zip(cdf, cdf[1:])])
    return mutual_information_discrete((0.5, 0.5), rows)


@st.composite
def _quantizers(draw):
    """Ascending thresholds, often asymmetric or all on one side of -1 or +1,
    sometimes with an infinite first or last threshold."""
    shift = draw(st.sampled_from([0.0, -14.0, -1.0, 1.0, 14.0]) | st.floats(-20.0, 20.0))
    values = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40))
    thresholds = sorted({v + shift for v in values})
    if draw(st.booleans()):
        thresholds.insert(0, -math.inf)
    if draw(st.booleans()):
        thresholds.append(math.inf)
    return Quantizer(tuple(thresholds))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=_quantizers(), sigma_tot_sq=st.floats(1e-3, 1e3))
def test_quantized_mi_matches_loop_reference(q, sigma_tot_sq):
    got = quantized_mutual_information(sigma_tot_sq, q)
    assert abs(got - _loop_quantized_mi(sigma_tot_sq, q)) <= 1e-14


def test_quantized_mi_infinite_thresholds_pinned():
    # An infinite threshold leaves an empty extreme cell; a quantizer whose one
    # nonempty cell is all of R carries nothing.
    inf = math.inf
    quantizers = [
        Quantizer((-inf, 0.0, inf)), Quantizer((-inf, -1.0, 0.0, 1.0, inf)),
        Quantizer((-inf, 0.5)), Quantizer((-0.25, inf)),
        Quantizer((-inf,)), Quantizer((inf,)), Quantizer((-inf, inf)),
    ]
    pins = {
        0.06: [0.999623566896467, 0.9996458457997996, 0.9272579673069882, 0.99379939358991],
        2.0: [0.20537560738252625, 0.2638111792347191, 0.19567805959001472, 0.20290897367973648],
        50.0: [0.009142866937418281, 0.010099305951597692, 0.009126203828556001,
               0.00913869871183648],
    }
    for s2, row in pins.items():
        assert infometrics._quantized_mi_bits(s2, quantizers) == row + [0.0, 0.0, 0.0]
        assert [quantized_mutual_information(s2, q) for q in quantizers] == row + [0.0, 0.0, 0.0]


def test_quantizer_sweep_rows_equal_single_calls():
    levels = list(range(2, 257, 2))
    for sigma_m_sq, sigma_w_sq in ((0.03, 0.03), (0.25, 0.625), (1.0, 1.0), (10.0, 40.0)):
        total = sigma_m_sq + sigma_w_sq
        half_range = default_half_range(total)
        rows = quantizer_sweep(sigma_m_sq, sigma_w_sq, levels)
        assert [row[0] for row in rows] == levels
        for lvl, i_hat, _ in rows:
            assert i_hat == quantized_mutual_information(total, uniform_quantizer(lvl, half_range))
    assert quantizer_sweep(1.0, 1.0, []) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(levels=st.integers(3, 300), half_range=st.floats(1e-3, 1e3))
def test_uniform_quantizer_matches_generator_form(levels, half_range):
    span = levels - 2
    expected = tuple(half_range * (2 * i - span) / span for i in range(levels - 1))
    assert uniform_quantizer(levels, half_range).thresholds == expected


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    half_levels=st.integers(1, 64),
    sigma_tot_sq=st.floats(0.05, 50.0),
)
@example(half_levels=1, sigma_tot_sq=0.10052333949577164)
def test_quantizer_refinement_chain(half_levels, sigma_tot_sq):
    # Doubling the span of uniform_quantizer(L) gives uniform_quantizer(2L - 2),
    # whose thresholds contain the coarse ones exactly, and both contain the
    # sign threshold 0: a data-processing chain with no tolerance.
    levels = 2 * half_levels
    half_range = default_half_range(sigma_tot_sq)
    coarse = uniform_quantizer(levels, half_range)
    fine = uniform_quantizer(2 * levels - 2, half_range)
    assert set(coarse.thresholds) <= set(fine.thresholds)
    p_w = normal_cdf(-1.0 / math.sqrt(sigma_tot_sq))
    i_coarse = quantized_mutual_information(sigma_tot_sq, coarse)
    i_fine = quantized_mutual_information(sigma_tot_sq, fine)
    assert 1.0 - binary_entropy(p_w) <= i_coarse <= i_fine <= awgn_mutual_information(sigma_tot_sq)


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


@pytest.mark.parametrize("i_x_zhat", [math.nan, math.inf, -math.inf])
def test_equivocation_loss_rejects_non_finite_information(i_x_zhat):
    with pytest.raises(ValueError, match=r"outside \[1 - h\(p_w\), 1\]"):
        equivocation_loss(P_UNIT, P_W_UNIT, i_x_zhat)


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


def test_max_equivocation_loss_is_loss_curve_at_noiseless_main_channel():
    # sigma_M^2 = 0 is the noiseless limit AwgnSplitChannel accepts (p = 0).
    assert max_equivocation_loss(0.0, 1.0) == loss_curve(0.0, [1.0])[0].loss


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
    with pytest.raises(ValueError, match=r"sigma_w_sq must be finite and > 0, got 0\.0"):
        loss_curve(1.0, [0.0])


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
        infometrics, "_quantized_mi_bits", lambda *a: calls.append(a) or [0.5]
    )
    with pytest.raises(ValueError, match="odd level count 3: .*no threshold at 0"):
        quantizer_sweep(1.0, 1.0, [2, 4, 3])
    assert calls == []
