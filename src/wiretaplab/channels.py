"""Split AWGN wiretap channel model and its induced binary channels.

Antipodal signaling on {-1,+1} (bit 0 -> -1, bit 1 -> +1) through main-channel
noise of variance sigma_m_sq; the eavesdropper sees the main-channel output
plus independent noise of variance sigma_w_sq.  Two-level quantization turns
each leg into a BSC with crossover Phi(-1/sigma); finer A/D front ends are
modeled by Quantizer partitions of the real line.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "AwgnSplitChannel",
    "Bsc",
    "Quantizer",
    "crossover_probabilities",
    "uniform_quantizer",
    "default_half_range",
    "normal_cdf",
]


def _check_variance(name: str, value: float, positive: bool = False) -> None:
    """Reject a variance, scale or slack that is not finite, or is negative
    (zero too if positive)."""
    bound = "> 0" if positive else ">= 0"
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _check_crossover(name: str, value: float) -> None:
    """Reject a BSC crossover probability outside [0, 1/2], NaN included."""
    if not 0.0 <= value <= 0.5:
        raise ValueError(f"crossover probability {name} must be in [0, 1/2], got {value!r}")


def _check_degraded(p: float, p_w: float) -> None:
    """Reject a main/wiretap crossover pair unless 0 <= p <= p_w <= 1/2."""
    _check_crossover("p", p)
    _check_crossover("p_w", p_w)
    if p > p_w:
        raise ValueError(f"not degraded: p={p} > p_w={p_w}")


def normal_cdf(x: float) -> float:
    """Standard normal CDF, through erfc so the lower tail keeps its digits."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class AwgnSplitChannel:
    """Main-channel noise variance and additional wiretap noise variance.

    Secrecy needs both variances positive; zero is accepted so degenerate
    noiseless setups remain testable.
    """

    sigma_m_sq: float
    sigma_w_sq: float

    def __post_init__(self):
        _check_variance("sigma_m_sq", self.sigma_m_sq)
        _check_variance("sigma_w_sq", self.sigma_w_sq)


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability p <= 1/2."""

    p: float

    def __post_init__(self):
        _check_crossover("p", self.p)


@dataclass(frozen=True)
class Quantizer:
    """L-level A/D converter given by L-1 strictly ascending thresholds.

    Cell i is (t_{i-1}, t_i] with unbounded extremes; a value exactly on a
    threshold belongs to the lower-indexed cell.  A threshold of -inf or +inf
    is legal and leaves an empty extreme cell; NaN is rejected.
    """

    thresholds: tuple

    def __post_init__(self):
        t = self.thresholds
        if len(t) < 1:
            raise ValueError("need at least one threshold (L >= 2)")
        # NaN fails every comparison, so it can only pass the ascending check
        # as the sole threshold.
        if not all(map(operator.lt, t, t[1:])) or t[0] != t[0]:
            for i, value in enumerate(t):
                if value != value:
                    raise ValueError(f"threshold {i} is {value!r}; thresholds must not be NaN")
            raise ValueError("thresholds must be strictly ascending")

    @property
    def levels(self) -> int:
        return len(self.thresholds) + 1


def crossover_probabilities(ch: AwgnSplitChannel) -> tuple:
    """(p, p_w): sign-quantized crossover of the main and wiretap legs.

    p = Phi(-1/sqrt(sigma_m_sq)); p_w uses the total variance
    sigma_m_sq + sigma_w_sq seen by the eavesdropper.  Zero variance gives
    the noiseless limit Phi(-inf) = 0.
    """

    def crossover(variance: float) -> float:
        if variance == 0.0:
            return 0.0
        return normal_cdf(-1.0 / math.sqrt(variance))

    return crossover(ch.sigma_m_sq), crossover(ch.sigma_m_sq + ch.sigma_w_sq)


def uniform_quantizer(levels: int, half_range: float) -> Quantizer:
    """L-1 thresholds evenly spaced over [-half_range, +half_range].

    The endpoints themselves are thresholds when L > 2; L = 2 degenerates to
    the single sign threshold at 0.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    _check_variance("half_range", half_range, positive=True)
    if levels == 2:
        return Quantizer((0.0,))
    # Integer numerators make the middle threshold of an even L exactly 0 and
    # t[i] == -t[-1 - i] exactly, so an even-L quantizer refines the sign one.
    span = levels - 2
    return Quantizer(tuple([half_range * m / span for m in range(-span, span + 1, 2)]))


def default_half_range(sigma_tot_sq: float) -> float:
    """Quantizer span covering >= 6 standard deviations past both symbols."""
    return 1.0 + 6.0 * math.sqrt(sigma_tot_sq)
