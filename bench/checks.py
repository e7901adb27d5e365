"""Reference computations made apart from wiretaplab, and the checks built on them.

Nothing here imports wiretaplab: each reference is derived from the
mathematics (a Walsh-Hadamard transform for the syndrome distribution, a
scipy quadrature for I(X;W), a re-implementation of the SHA-256 counter-mode
stream) so that a wrong program output cannot also make its own reference
wrong.  Every check raises CheckError on failure.

numpy and scipy are imported inside the references that use them, so that
importing this module costs the program's set-up time nothing.
"""

from __future__ import annotations

import hashlib
import math

EXACT_TOL = 1e-12  # exact equivocation vs the transform reference
PROB_TOL = 1e-12  # crossovers, entropies, capacities, L = 2 information
MC_SIGMAS = 5.0  # pooled Monte Carlo estimate vs exact, in standard errors
RATE_SIGMAS = 4.0  # LPN success rate vs its binomial lower bound


class CheckError(AssertionError):
    """A program output disagreed with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def entropy2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def phi(x: float) -> float:
    """Standard normal CDF through erfc (no cancellation in the lower tail)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# --- Exact equivocation by Walsh-Hadamard transform -------------------------


def _walsh_hadamard(values):
    """Unnormalized transform; index bit b pairs entries 2^b apart."""
    import numpy as np

    out = values.astype(float)
    size = out.size
    half = 1
    while half < size:
        blocks = out.reshape(-1, 2, half)
        out = np.stack((blocks[:, 0] + blocks[:, 1], blocks[:, 0] - blocks[:, 1]), axis=1)
        half *= 2
    return out.reshape(-1)


def _xlog2x_sum(values) -> float:
    import numpy as np

    nz = values[values > 0.0]
    return float((nz * np.log2(nz)).sum())


def syndrome_equivocation(h_rows, zero_len: int, msg_len: int, p: float) -> float:
    """H(S|Z)/K of a coset code over BSC(p), from the noise-syndrome spectrum.

    The syndrome u = t h^T of Bernoulli(p)^n noise t has Fourier coefficients
    E[(-1)^(a.u)] = (1-2p)^wt(a h), so its distribution W is one inverse
    transform away.  Summing W over the message shifts zeroes every
    coefficient with a message bit set, which gives the syndrome marginal T
    the same way.  Then H(S|Z) = H(W) + 2^-K sum T log2 T.
    """
    import numpy as np

    combos = np.zeros(1, dtype=np.uint64)
    for row in h_rows:
        combos = np.concatenate([combos, combos ^ np.uint64(row)])
    spectrum = (1.0 - 2.0 * p) ** np.bitwise_count(combos).astype(float)
    size = spectrum.size
    w = _walsh_hadamard(spectrum) / size
    msg_mask = ((1 << msg_len) - 1) << zero_len
    no_msg = (np.arange(size, dtype=np.int64) & msg_mask) == 0
    t = _walsh_hadamard(np.where(no_msg, spectrum, 0.0)) * (1 << msg_len) / size
    h_s_given_z = -_xlog2x_sum(w) + _xlog2x_sum(t) / (1 << msg_len)
    return h_s_given_z / msg_len


def check_exact(value: float, reference: float, what: str) -> None:
    require(
        abs(value - reference) <= EXACT_TOL,
        f"{what}: exact equivocation {value!r} != transform reference {reference!r}",
    )


def check_monte_carlo(batches, reference: float, what: str) -> None:
    """Pool (samples, mean, stderr) batches; the pooled mean must be within
    MC_SIGMAS pooled standard errors of the exact value."""
    total = sum(n for n, _, _ in batches)
    mean = sum(n * m for n, m, _ in batches) / total
    stderr = math.sqrt(sum((n * se) ** 2 for n, _, se in batches)) / total
    require(stderr > 0.0, f"{what}: Monte Carlo standard error is zero")
    require(
        abs(mean - reference) <= MC_SIGMAS * stderr,
        f"{what}: Monte Carlo {mean!r} is {abs(mean - reference) / stderr:.2f} "
        f"standard errors from exact {reference!r}",
    )


# --- I(X;W) by scipy quadrature ---------------------------------------------


def awgn_mi_reference(sigma_sq: float) -> float:
    """I(X;W) = 1 - E[log2(1 + exp(-2Y/sigma^2))], Y ~ N(1, sigma^2).

    Integrated over the standard normal t = (Y - 1)/sigma on [-40, 40] (the
    remaining Gaussian mass is below 1e-300), split where Y = 0.
    """
    import numpy as np
    from scipy import integrate

    sigma = math.sqrt(sigma_sq)
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(t: float) -> float:
        y = 1.0 + sigma * t
        return norm * math.exp(-0.5 * t * t) * float(np.logaddexp(0.0, -2.0 * y / sigma_sq))

    value, _ = integrate.quad(
        integrand, -40.0, 40.0, points=[-1.0 / sigma], epsabs=1e-15, epsrel=1e-13, limit=500
    )
    return 1.0 - value / math.log(2.0)


def check_awgn_mi(value: float, reference: float, tol: float, what: str) -> None:
    require(
        abs(value - reference) <= tol,
        f"{what}: I(X;W) {value!r} differs from quadrature reference "
        f"{reference!r} by more than tol={tol}",
    )


# --- Secrecy-analysis properties --------------------------------------------


def loss_formula(p: float, p_w: float, i_x_zhat: float) -> float:
    """(h(p_w) - 1 + I) / (h(p_w) - h(p)), saturated to [0, 1]."""
    h_p, h_pw = entropy2(p), entropy2(p_w)
    return min(max(h_pw - 1.0 + i_x_zhat, 0.0) / (h_pw - h_p), 1.0)


def check_operating_point(point, result, i_ref: float, tol: float) -> None:
    """One (sigma_m_sq, sigma_w_sq) result against references and properties.

    `result` holds p, p_w, c_s, i_xw, loss and sweep [(L, I(X;Zhat), loss)]
    in ascending L, starting at L = 2.
    """
    sm, sw = point
    what = f"point ({sm}, {sw})"
    require(abs(result["p"] - phi(-1.0 / math.sqrt(sm))) <= PROB_TOL, f"{what}: p")
    require(abs(result["p_w"] - phi(-1.0 / math.sqrt(sm + sw))) <= PROB_TOL, f"{what}: p_w")
    p, p_w = result["p"], result["p_w"]
    h_p, h_pw = entropy2(p), entropy2(p_w)
    require(abs(result["c_s"] - (h_pw - h_p)) <= PROB_TOL, f"{what}: capacity != h(p_w) - h(p)")
    check_awgn_mi(result["i_xw"], i_ref, tol, what)
    require(
        abs(result["loss"] - loss_formula(p, p_w, result["i_xw"])) <= PROB_TOL,
        f"{what}: loss disagrees with its formula",
    )
    sweep = result["sweep"]
    require(sweep[0][0] == 2, f"{what}: sweep does not start at L = 2")
    require(
        abs(sweep[0][1] - (1.0 - h_pw)) <= PROB_TOL,
        f"{what}: I(X;Zhat) at L = 2 is {sweep[0][1]!r}, want 1 - h(p_w) = {1.0 - h_pw!r}",
    )
    for (l_lo, i_lo, _), (l_hi, i_hi, _) in zip(sweep, sweep[1:]):
        require(i_hi >= i_lo - PROB_TOL, f"{what}: I(X;Zhat) falls from L={l_lo} to L={l_hi}")
    for levels, i_hat, loss in sweep:
        require(i_hat <= i_ref + PROB_TOL, f"{what}: I(X;Zhat) at L={levels} exceeds I(X;W)")
        require(
            abs(loss - loss_formula(p, p_w, i_hat)) <= PROB_TOL,
            f"{what}: sweep loss at L={levels} disagrees with its formula",
        )


def check_loss_decreasing(row) -> None:
    """Losses of one sigma_m_sq row, in ascending sigma_w_sq, fall strictly."""
    for (sw_lo, loss_lo), (sw_hi, loss_hi) in zip(row, row[1:]):
        require(
            loss_hi < loss_lo,
            f"loss does not fall from sigma_w_sq={sw_lo} ({loss_lo!r}) "
            f"to {sw_hi} ({loss_hi!r})",
        )


# --- LPN: stream replay and decryption statistics ---------------------------


class ReplayStream:
    """SHA-256 counter-mode stream as documented for wiretaplab's PrngStream:
    key = SHA-256(len(seed) as 8 big-endian bytes || seed || label), block i =
    SHA-256(key || i as 8 big-endian bytes), bits taken LSB-first from each
    block read as a little-endian integer."""

    def __init__(self, seed: bytes, label: str = ""):
        self._key = hashlib.sha256(len(seed).to_bytes(8, "big") + seed + label.encode()).digest()
        self._counter = 0
        self._buffer = 0
        self._buffered = 0

    def bits(self, count: int) -> int:
        while self._buffered < count:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer |= int.from_bytes(block, "little") << self._buffered
            self._buffered += 256
        out = self._buffer & ((1 << count) - 1)
        self._buffer >>= count
        self._buffered -= count
        return out


def replay_lpn_noise(seed: bytes, pad_bits: int, k: int, n: int, p: float) -> tuple:
    """(u, v) an encryption under `seed` drew: the pad r, then u, then n
    Bernoulli(p) noise bits each from a 32-bit fixed-point threshold."""
    stream = ReplayStream(seed)
    stream.bits(pad_bits)
    u = stream.bits(k)
    threshold = round(p * 4294967296.0)
    v = 0
    for i in range(n):
        v |= (1 if stream.bits(32) < threshold else 0) << i
    return u, v


def binomial_at_most(n: int, p: float, r: int) -> float:
    """P(Binomial(n, p) <= r)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(r + 1))


def check_decryptions(messages, radius: int) -> int:
    """messages: (plaintext, decrypted, noise_weight) per roundtrip.

    Every message whose noise is within the correction radius must decrypt
    correctly.  Returns how many decrypted correctly.
    """
    ok = 0
    for plain, out, weight in messages:
        if plain == out:
            ok += 1
        else:
            require(
                weight > radius,
                f"noise weight {weight} <= radius {radius} but decrypted {out:#x} != {plain:#x}",
            )
    return ok


def check_success_rate(ok: int, total: int, bound: float) -> None:
    """The success rate must reach the binomial bound P(weight <= radius),
    less RATE_SIGMAS binomial standard errors."""
    slack = RATE_SIGMAS * math.sqrt(bound * (1.0 - bound) / total)
    require(
        ok / total >= bound - slack,
        f"success rate {ok}/{total} below binomial bound {bound:.6f} - {slack:.6f}",
    )


# --- CLI ---------------------------------------------------------------------


def check_cli_output(command, stdout: str, expected: str) -> None:
    require(
        stdout == expected,
        f"`{' '.join(command)}` printed {stdout!r}, library gives {expected!r}",
    )
