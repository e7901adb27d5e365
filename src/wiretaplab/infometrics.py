"""Entropy, mutual information and equivocation-loss computations.

Covers the closed-form secrecy capacity of a degraded BSC pair, the
information I(X;W) an unquantized eavesdropper gets (a one-dimensional
Gaussian expectation, evaluated by the trapezoid rule), and the equivocation
lost when the eavesdropper's A/D front end is finer than the two-level one
the code was designed against.  Quantized information takes its cell
probabilities from Gaussian tails, for all quantizers of a sweep in one numpy
pass.  The independent references these are checked against (discrete mutual
information of a finite channel, a grid search for the secrecy capacity) live
in the tests.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .channels import (
    AwgnSplitChannel,
    Quantizer,
    _check_degraded,
    _check_variance,
    crossover_probabilities,
    default_half_range,
    uniform_quantizer,
)

__all__ = [
    "LossCurvePoint",
    "binary_entropy",
    "secrecy_capacity_bsc",
    "awgn_mutual_information",
    "quantized_mutual_information",
    "equivocation_loss",
    "max_equivocation_loss",
    "loss_curve",
    "quantizer_sweep",
]


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0, 1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_bits(dist: np.ndarray) -> float:
    """-sum x log2 x over the positive entries of dist, with 0 log 0 = 0."""
    nz = dist[dist > 0]
    return float(-(nz * np.log2(nz)).sum())


def secrecy_capacity_bsc(p: float, p_w: float) -> float:
    """h(p_w) - h(p) for a degraded BSC pair (uniform input is optimal)."""
    _check_degraded(p, p_w)
    return binary_entropy(p_w) - binary_entropy(p)


def awgn_mutual_information(sigma_tot_sq: float, tol: float = 1e-9) -> float:
    """I(X;W) for antipodal X through N(0, sigma_tot_sq), in bits.

    I = 1 - E[log2(1 + exp(-2Y/sigma^2))] with Y = 1 + sigma t, t ~ N(0, 1),
    by the trapezoid rule on t in [-10, 10] (the Gaussian mass beyond is
    below 2e-23).  The integrand is analytic in the strip |Im t| < pi sigma/2
    (the softplus branch points), so the rule converges geometrically, with
    error about exp(-pi^2 sigma / h); the step h = pi^2 sigma / (2 ln(1/tol))
    asks for tol^2, a margin for the constant in front.  The cap 0.5 on h
    keeps large sigma resolved; the floor 0.025 (at most 801 nodes) only binds
    for sigma below ~0.1, where the branch points lie at Re t = -1/sigma
    <= -10 and the Gaussian weight hides them.  tol, in (0, 1), is the
    absolute error asked for.
    """
    _check_variance("sigma_tot_sq", sigma_tot_sq, positive=True)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    sigma = math.sqrt(sigma_tot_sq)
    h = min(0.5, max(0.025, math.pi**2 * sigma / (2.0 * -math.log(tol))))
    k = math.ceil(10.0 / h)
    t = h * np.arange(-k, k + 1)
    weights = np.exp(-0.5 * t * t) * (h / math.sqrt(2.0 * math.pi))
    nats = float(weights @ np.logaddexp(0.0, -2.0 * (1.0 + sigma * t) / sigma_tot_sq))
    return min(max(1.0 - nats / math.log(2.0), 0.0), 1.0)


def _quantized_mi_bits(sigma_tot_sq: float, quantizers) -> list:
    """I(X; Z_q) in bits for each quantizer q, all in one numpy pass.

    X is uniform on {-1, +1} and Z_q quantizes X + N(0, sigma_tot_sq).  Each
    quantizer's edges are -inf, its thresholds, +inf, and every edge t gives
    z = (t - x)/sigma for both x; one map of erfc over the values gives each
    tail 0.5 erfc(|z|/sqrt 2), the lower tail F(z) for z <= 0 and the upper
    tail S(z) for z > 0 (both 0 at an infinite edge).  A cell (a, b] is
    F(b) - F(a) below the median, S(a) - S(b) above it, and 1 - F(a) - S(b)
    where it straddles it, so no cell is the difference of two values near 1.
    The entropies of the two rows and of their mixture are one reduction over
    the cells of each quantizer.
    """
    _check_variance("sigma_tot_sq", sigma_tot_sq, positive=True)
    sigma = math.sqrt(sigma_tot_sq)
    edges = chain.from_iterable((-math.inf, *q.thresholds, math.inf) for q in quantizers)
    z = (np.fromiter(edges, float) - np.array([[-1.0], [1.0]])) / sigma
    scaled = (np.abs(z) / math.sqrt(2.0)).ravel().tolist()
    tails = 0.5 * np.fromiter(map(math.erfc, scaled), float, z.size).reshape(z.shape)
    # Cell c of quantizer k lies between edges c + k and c + k + 1 of the
    # concatenation: the gap from one quantizer's +inf to the next's -inf is
    # no cell.
    cells_per_q = np.array([len(q.thresholds) + 1 for q in quantizers], dtype=np.intp)
    starts = np.cumsum(cells_per_q) - cells_per_q
    left = np.arange(cells_per_q.sum()) + np.repeat(np.arange(len(quantizers)), cells_per_q)
    f_a, f_b, z_a, z_b = tails[:, left], tails[:, left + 1], z[:, left], z[:, left + 1]
    rows = np.where(z_b <= 0.0, f_b - f_a, np.where(z_a > 0.0, f_a - f_b, 1.0 - f_a - f_b))
    dist = np.vstack((rows, 0.5 * (rows[0] + rows[1])))
    terms = dist * np.log2(np.where(dist > 0.0, dist, 1.0))
    h = -np.add.reduceat(terms, starts, axis=1)
    mi = h[2] - 0.5 * (h[0] + h[1])
    if (mi < -1e-12).any():
        raise AssertionError(f"negative mutual information: {mi.min()}")
    return np.maximum(mi, 0.0).tolist()


def quantized_mutual_information(sigma_tot_sq: float, q: Quantizer) -> float:
    """I(X; quantized W) in bits, from the exact cell probabilities.

    Uniform input on {-1, +1}; each cell probability is taken from Gaussian
    tails (see _quantized_mi_bits, which quantizer_sweep calls once per
    operating point for all its quantizers).
    """
    return _quantized_mi_bits(sigma_tot_sq, [q])[0]


def equivocation_loss(p: float, p_w: float, i_x_zhat: float) -> float:
    """Equivocation lost per source bit for eavesdropper information i_x_zhat.

    (h(p_w) - 1 + i_x_zhat) / (h(p_w) - h(p)), saturated at 1 since the
    actual equivocation cannot drop below zero.  i_x_zhat must lie in
    [1 - h(p_w), 1]: the two-level value is the floor of the believed model.
    """
    _check_degraded(p, p_w)
    if p == p_w:
        raise ValueError("p == p_w leaves no secrecy to lose (zero denominator)")
    h_p = binary_entropy(p)
    h_pw = binary_entropy(p_w)
    floor = 1.0 - h_pw
    if not floor - 1e-9 <= i_x_zhat <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"i_x_zhat={i_x_zhat} outside [1 - h(p_w), 1] = [{floor}, 1]")
    numerator = h_pw - 1.0 + i_x_zhat
    if numerator < 0.0:
        numerator = 0.0  # float noise at the two-level boundary
    return min(numerator / (h_pw - h_p), 1.0)


def max_equivocation_loss(sigma_m_sq: float, sigma_w_sq: float) -> float:
    """Equivocation loss against an unquantized eavesdropper (L -> infinity).

    Evaluates the loss with i_x_zhat = I(X;W) at total variance
    sigma_m_sq + sigma_w_sq, the supremum over all A/D front ends.
    """
    return loss_curve(sigma_m_sq, [sigma_w_sq])[0].loss


@dataclass(frozen=True)
class LossCurvePoint:
    """One operating point of the loss-vs-wiretap-noise curve."""

    sigma_w_sq: float
    p: float
    p_w: float
    i_xw: float
    loss: float


def loss_curve(sigma_m_sq: float, sigma_w_grid) -> list:
    """Maximum equivocation loss over an ascending grid of wiretap variances."""
    grid = list(sigma_w_grid)
    if not grid:
        raise ValueError("empty grid")
    for sw2 in grid:
        _check_variance("sigma_w_sq", sw2, positive=True)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    points = []
    for sw2 in grid:
        p, p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sw2))
        i_xw = awgn_mutual_information(sigma_m_sq + sw2)
        loss = equivocation_loss(p, p_w, i_xw)
        points.append(LossCurvePoint(sw2, p, p_w, i_xw, loss))
    return points


def quantizer_sweep(sigma_m_sq: float, sigma_w_sq: float, levels_list) -> list:
    """Per-L quantized information and loss, for uniform default-range grids.

    Returns (levels, i_x_zhat, loss) triples; callers append the L -> infinity
    row from loss_curve(sigma_m_sq, [sigma_w_sq]) themselves.  Level counts
    must be even.
    """
    for levels in levels_list:
        if levels % 2:
            raise ValueError(
                f"odd level count {levels}: an odd uniform quantizer has no threshold at 0, "
                "so it does not refine the sign quantizer the loss is measured against"
            )
    sigma_tot_sq = sigma_m_sq + sigma_w_sq
    p, p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sigma_w_sq))
    # loss_curve's rule, checked after AwgnSplitChannel's so that a non-finite
    # variance keeps its ">= 0" message.
    _check_variance("sigma_w_sq", sigma_w_sq, positive=True)
    half_range = default_half_range(sigma_tot_sq)
    quantizers = [uniform_quantizer(levels, half_range) for levels in levels_list]
    i_hats = _quantized_mi_bits(sigma_tot_sq, quantizers)
    return [
        (levels, i_hat, equivocation_loss(p, p_w, i_hat))
        for levels, i_hat in zip(levels_list, i_hats)
    ]
