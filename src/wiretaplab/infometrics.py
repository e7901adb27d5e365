"""Entropy, mutual information and equivocation-loss computations.

Covers the closed-form secrecy capacity of a degraded BSC pair, mutual
information of arbitrary finite channels, the two-component Gaussian mixture
seen by an unquantized eavesdropper (with adaptive quadrature for its
differential entropy), and the equivocation lost when the eavesdropper's A/D
front end is finer than the two-level one the code was designed against.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AwgnSplitChannel,
    Quantizer,
    crossover_probabilities,
    default_half_range,
    normal_cdf,
    uniform_quantizer,
)

__all__ = [
    "DiscreteChannelSpec",
    "LossCurvePoint",
    "QuadratureError",
    "binary_entropy",
    "mutual_information_discrete",
    "secrecy_capacity_bsc",
    "secrecy_capacity_search",
    "mixture_density",
    "mixture_entropy",
    "awgn_mutual_information",
    "quantized_mutual_information",
    "equivocation_loss",
    "max_equivocation_loss",
    "loss_curve",
    "quantizer_sweep",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature ran out of budget; carries the best estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0, 1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_bits(dist: np.ndarray) -> float:
    nz = dist[dist > 0]
    return float(-(nz * np.log2(nz)).sum())


class DiscreteChannelSpec:
    """Input distribution plus row-stochastic transition matrix P(out|in)."""

    def __init__(self, input_dist, transition):
        self.input_dist = np.asarray(input_dist, dtype=float)
        self.transition = np.asarray(transition, dtype=float)
        if self.input_dist.ndim != 1 or self.transition.ndim != 2:
            raise ValueError("input_dist must be 1-D and transition 2-D")
        if self.transition.shape[0] != self.input_dist.shape[0]:
            raise ValueError("transition rows must match input alphabet size")
        if (self.input_dist < 0).any() or (self.transition < 0).any():
            raise ValueError("probabilities must be >= 0")
        if abs(self.input_dist.sum() - 1.0) > 1e-12:
            raise ValueError("input_dist must sum to 1")
        row_err = np.abs(self.transition.sum(axis=1) - 1.0).max()
        if row_err > 1e-12:
            raise ValueError(f"transition rows must sum to 1 (off by {row_err:.3g})")


def mutual_information_discrete(spec: DiscreteChannelSpec) -> float:
    """I(input; output) = H(output) - H(output | input) in bits."""
    p_out = spec.input_dist @ spec.transition
    h_cond = sum(
        px * _entropy_bits(row) for px, row in zip(spec.input_dist, spec.transition)
    )
    mi = _entropy_bits(p_out) - h_cond
    if mi < 0:
        if mi < -1e-12:
            raise AssertionError(f"negative mutual information: {mi}")
        mi = 0.0
    return mi


def secrecy_capacity_bsc(p: float, p_w: float) -> float:
    """h(p_w) - h(p) for a degraded BSC pair (uniform input is optimal)."""
    if not 0.0 <= p <= 0.5 or not 0.0 <= p_w <= 0.5:
        raise ValueError("crossover probabilities out of [0, 1/2]")
    if p > p_w:
        raise ValueError(f"not degraded: p={p} > p_w={p_w}")
    return binary_entropy(p_w) - binary_entropy(p)


def secrecy_capacity_search(main_transition, wiretap_transition, grid_step: float = 1e-3) -> tuple:
    """Maximize I(X;Y) - I(X;Z) over Bernoulli(q) inputs on a binary alphabet.

    Sweeps q over a grid of the given step, then refines around the grid
    argmax with golden-section search.  Returns (capacity, input_dist).
    """
    if not 0.0 < grid_step < 0.5:
        raise ValueError("grid_step must be in (0, 0.5)")
    main = np.asarray(main_transition, dtype=float)
    wiretap = np.asarray(wiretap_transition, dtype=float)
    if main.shape[0] != 2 or wiretap.shape[0] != 2:
        raise ValueError("binary input alphabet required")

    def objective(q: float) -> float:
        dist = (1.0 - q, q)
        i_main = mutual_information_discrete(DiscreteChannelSpec(dist, main))
        i_wire = mutual_information_discrete(DiscreteChannelSpec(dist, wiretap))
        return i_main - i_wire

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


def mixture_density(sigma_tot_sq: float, w: float) -> float:
    """Density of the eavesdropper's analog observation for uniform input.

    Equal-weight mixture of unit-amplitude antipodal means:
    f(w) = [phi((w+1)/sigma) + phi((w-1)/sigma)] / (2 sigma).
    """
    if sigma_tot_sq <= 0:
        raise ValueError("sigma_tot_sq must be > 0")
    sigma = math.sqrt(sigma_tot_sq)
    a = (w + 1.0) / sigma
    b = (w - 1.0) / sigma
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    return (norm * math.exp(-0.5 * a * a) + norm * math.exp(-0.5 * b * b)) / (2.0 * sigma)


def _integrate(f, a, b, tol, max_depth=60, max_evals=500_000):
    """Adaptive Simpson with Richardson acceptance test |S2 - S1| <= 15 tol.

    Runs an explicit interval stack; when the subdivision budget runs out the
    QuadratureError carries the best estimate assembled from the finished
    intervals plus coarse values of the unfinished ones.
    """
    fa, fb = f(a), f(b)
    m = (a + b) / 2.0
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    evals = 3
    stack = [(a, fa, m, fm, b, fb, whole, tol, max_depth)]
    while stack:
        a1, fa1, m1, fm1, b1, fb1, whole1, tol1, depth = stack.pop()
        lm = (a1 + m1) / 2.0
        rm = (m1 + b1) / 2.0
        flm = f(lm)
        frm = f(rm)
        evals += 2
        left = (m1 - a1) / 6.0 * (fa1 + 4.0 * flm + fm1)
        right = (b1 - m1) / 6.0 * (fm1 + 4.0 * frm + fb1)
        delta = left + right - whole1
        if abs(delta) <= 15.0 * tol1:
            total += left + right + delta / 15.0
            continue
        if depth <= 0 or evals >= max_evals:
            estimate = (
                total
                + left
                + right
                + delta / 15.0
                + sum(node[6] for node in stack)
            )
            raise QuadratureError(
                f"quadrature budget exhausted on [{a1}, {b1}] "
                f"(depth={depth}, evals={evals})",
                estimate=estimate,
            )
        stack.append((a1, fa1, lm, flm, m1, fm1, left, tol1 / 2.0, depth - 1))
        stack.append((m1, fm1, rm, frm, b1, fb1, right, tol1 / 2.0, depth - 1))
    return total


def mixture_entropy(sigma_tot_sq: float, tol: float = 1e-9) -> float:
    """Differential entropy of the antipodal Gaussian mixture, in bits.

    Integrates -f log2 f over [-(1+8 sigma), +(1+8 sigma)] split at the two
    bump centers; the truncated tails contribute below 1e-12 (the density is
    at least 8 standard deviations past either symbol mean there).
    """
    if sigma_tot_sq <= 0:
        raise ValueError("sigma_tot_sq must be > 0")
    sigma = math.sqrt(sigma_tot_sq)
    top = 1.0 + 8.0 * sigma

    def integrand(w: float) -> float:
        f = mixture_density(sigma_tot_sq, w)
        if f <= 0.0:
            return 0.0  # underflow far in the tails; x log x -> 0
        return -f * math.log2(f)

    cuts = [-top, -1.0, 0.0, 1.0, top]
    try:
        return sum(
            _integrate(integrand, lo, hi, tol / 4.0)
            for lo, hi in zip(cuts, cuts[1:])
        )
    except QuadratureError as exc:
        raise QuadratureError(
            f"entropy quadrature did not reach tol={tol}: {exc}", exc.estimate
        ) from exc


def awgn_mutual_information(sigma_tot_sq: float, tol: float = 1e-9) -> float:
    """I(X;W) for antipodal X through N(0, sigma_tot_sq), in bits.

    Differential-entropy decomposition: the mixture entropy is integrated
    numerically, the conditional term 0.5 log2(2 pi e sigma^2) is closed form.
    """
    h_w = mixture_entropy(sigma_tot_sq, tol)
    h_w_given_x = 0.5 * math.log2(2.0 * math.pi * math.e * sigma_tot_sq)
    mi = h_w - h_w_given_x
    return min(max(mi, 0.0), 1.0) if -1e-9 < mi < 1.0 + 1e-9 else mi


def quantized_mutual_information(sigma_tot_sq: float, q: Quantizer) -> float:
    """I(X; quantized W) from the exact cell-probability transition matrix.

    P(cell | x) = Phi((t_hi - x)/sigma) - Phi((t_lo - x)/sigma) with open
    extreme cells, uniform input on {-1, +1}.
    """
    if sigma_tot_sq <= 0:
        raise ValueError("sigma_tot_sq must be > 0")
    sigma = math.sqrt(sigma_tot_sq)
    rows = []
    for x in (-1.0, 1.0):
        cdf = [0.0] + [normal_cdf((t - x) / sigma) for t in q.thresholds] + [1.0]
        rows.append([hi - lo for lo, hi in zip(cdf, cdf[1:])])
    spec = DiscreteChannelSpec((0.5, 0.5), rows)
    return mutual_information_discrete(spec)


def equivocation_loss(p: float, p_w: float, i_x_zhat: float) -> float:
    """Equivocation lost per source bit for eavesdropper information i_x_zhat.

    (h(p_w) - 1 + i_x_zhat) / (h(p_w) - h(p)), saturated at 1 since the
    actual equivocation cannot drop below zero.  i_x_zhat must lie in
    [1 - h(p_w), 1]: the two-level value is the floor of the believed model.
    """
    if not 0.0 <= p <= 0.5 or not 0.0 <= p_w <= 0.5:
        raise ValueError("crossover probabilities out of [0, 1/2]")
    if p > p_w:
        raise ValueError(f"not degraded: p={p} > p_w={p_w}")
    if p == p_w:
        raise ValueError("p == p_w leaves no secrecy to lose (zero denominator)")
    h_p = binary_entropy(p)
    h_pw = binary_entropy(p_w)
    floor = 1.0 - h_pw
    if i_x_zhat < floor - 1e-9 or i_x_zhat > 1.0 + 1e-12:
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
    if sigma_m_sq <= 0 or sigma_w_sq <= 0:
        raise ValueError("both variances must be > 0")
    p, p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sigma_w_sq))
    i_xw = awgn_mutual_information(sigma_m_sq + sigma_w_sq)
    return equivocation_loss(p, p_w, i_xw)


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
    if any(g <= 0 for g in grid):
        raise ValueError("grid values must be > 0")
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
    row from awgn_mutual_information themselves.  Level counts must be even.
    """
    for levels in levels_list:
        if levels % 2:
            raise ValueError(
                f"odd level count {levels}: an odd uniform quantizer has no threshold at 0, "
                "so it does not refine the sign quantizer the loss is measured against"
            )
    sigma_tot_sq = sigma_m_sq + sigma_w_sq
    p, p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sigma_w_sq))
    half_range = default_half_range(sigma_tot_sq)
    out = []
    for levels in levels_list:
        quantizer = uniform_quantizer(levels, half_range)
        i_hat = quantized_mutual_information(sigma_tot_sq, quantizer)
        out.append((levels, i_hat, equivocation_loss(p, p_w, i_hat)))
    return out
