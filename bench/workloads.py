"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs whole rounds of
the same operations through wiretaplab's public API, checks the outputs
against the references in ``checks``, and names a fixed CLI sequence whose
stdout must equal the library's result for the same inputs.

Program functions are looked up on the ``wiretaplab`` package at call time
(``wl.encrypt``, not a local alias), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import wiretaplab as wl

import checks

EQUIVOCATION_HEADER = "equivocation,rate,error_prob,method,stderr"
CAPACITY_HEADER = "p,p_w,h_p,h_p_w,c_s"
LOSS_CURVE_HEADER = "sigma_w_sq,p,p_w,i_xw,loss"
SWEEP_HEADER = "levels,i_x_zhat,loss"


def fmt(x: float) -> str:
    """The CLI's documented 17-significant-digit float format."""
    return f"{x:.17g}"


def seconds_per_call(calls, repeats: int = 7) -> float:
    """Median over `repeats` passes of one pass's time per call."""
    passes = []
    for _ in range(repeats):
        start = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        passes.append((time.perf_counter() - start) / len(calls))
    return statistics.median(passes)


class Workload:
    name = ""
    round_items = 0  # items one round attempts
    traced_rounds = 0  # rounds the traced run records spans for

    def __init__(self, seed: int):
        self.seed = seed
        # A str seed is hashed with SHA-512, so inputs repeat across processes.
        self.rand = random.Random(f"wiretaplab-bench:{self.name}:{seed}")

    def build(self):
        """Make the inputs and fill lazy tables; everything before timing."""
        raise NotImplementedError

    def run_round(self) -> int:
        """One timed round; returns the number of items that failed."""
        raise NotImplementedError

    def after_round(self):
        """Untimed checks of the round just run."""

    def check(self):
        """Checks that need every round; raises checks.CheckError."""

    def cli_sequence(self, workdir: Path) -> list:
        """[(argv, expected)], writing any input files to workdir; expected()
        gives the library's stdout for the command.  It is computed only when
        the output is checked, after peak memory has been read, because the
        exact equivocation it may need is bigger than the workload itself."""
        raise NotImplementedError

    def layer_timings(self) -> dict:
        """Per-call timings (untraced) of this workload's layer functions."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """MC equivocation with workers=2 on random (24, k_fine, k_coarse) codes at
    p_w = Phi(-1/sqrt(2)), the wiretap crossover for sigma_M^2 = sigma_W^2 = 1.
    A round makes `calls` calls of `samples` samples on each code."""

    codes_per_run = 4
    n = 24

    def __init__(self, seed, k_fine, k_coarse, samples, calls, cli_samples):
        super().__init__(seed)
        self.k_fine, self.k_coarse = k_fine, k_coarse
        self.samples = samples
        self.calls = calls
        self.cli_samples = cli_samples
        self.round_items = self.codes_per_run * calls * samples

    def build(self):
        self.p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(1.0, 1.0))[1]
        self.codes = []
        while len(self.codes) < self.codes_per_run:
            rows = [self.rand.getrandbits(self.n) for _ in range(self.n - self.k_coarse)]
            h = wl.BitMatrix.from_row_words(rows, self.n)
            try:
                code = wl.CosetCode(h, self.n - self.k_fine, self.k_fine - self.k_coarse)
            except ValueError:  # rank-deficient draw
                continue
            code._fine_words  # warm-up: the lazy fine-code table
            self.codes.append(code)
        self.batches = [[] for _ in self.codes]
        self.cli_seed = self.rand.randbytes(16)

    def run_round(self):
        failed = 0
        for code, batches in zip(self.codes, self.batches):
            for _ in range(self.calls):
                stream = wl.prng_stream(self.rand.randbytes(16))
                try:
                    report = wl.monte_carlo_equivocation(
                        code, wl.Bsc(self.p_w), self.samples, stream, workers=2
                    )
                except Exception:
                    failed += self.samples
                    continue
                batches.append((self.samples, report.equivocation, report.stderr))
        return failed

    def check(self):
        for index, (code, batches) in enumerate(zip(self.codes, self.batches)):
            what = f"{self.name} code {index}"
            reference = checks.syndrome_equivocation(
                code.h.row_words, code.zero_len, code.msg_len, self.p_w
            )
            exact = wl.exact_equivocation(code, wl.Bsc(self.p_w))
            checks.check_exact(exact.equivocation, reference, what)
            if batches:  # empty only when every batch raised, which `failed` counts
                checks.check_monte_carlo(batches, reference, what)

    def cli_sequence(self, workdir):
        code = self.codes[0]
        path = workdir / "code.txt"
        path.write_text(wl.code_to_text(code), encoding="utf-8")
        common = ["equivocation", "--code-file", str(path), "--p-w", repr(self.p_w)]
        bsc = wl.Bsc(self.p_w)
        return [
            (
                common + ["--mode", "mc", "--samples", str(self.cli_samples),
                          "--workers", "2", "--seed", self.cli_seed.hex()],
                lambda: self._csv(
                    wl.monte_carlo_equivocation(
                        code, bsc, self.cli_samples, wl.prng_stream(self.cli_seed), workers=2
                    ),
                    "monte-carlo",
                ),
            ),
            (common + ["--mode", "exact"], lambda: self._csv(wl.exact_equivocation(code, bsc), "exact")),
        ]

    def _csv(self, report, method):
        row = ",".join(
            [fmt(report.equivocation), fmt(self.codes[0].k_msg / self.n), "nan", method,
             fmt(report.stderr)]
        )
        return f"{EQUIVOCATION_HEADER}\n{row}\n"

    def layer_timings(self):
        bsc = wl.Bsc(self.p_w)
        per_call = seconds_per_call([(wl.exact_equivocation, (c, bsc)) for c in self.codes], 5)
        return {"coset.exact_equivocation_ms": per_call * 1e3}


class McK16(MonteCarlo):
    """Calls the size of the package's own (24, 16, 8) Monte Carlo tests (600
    samples); the CLI runs the 400 samples of the CLI acceptance test."""

    name = "mc-k16"
    traced_rounds = 1

    def __init__(self, seed):
        super().__init__(seed, 16, 8, samples=600, calls=1, cli_samples=400)


class McK8(MonteCarlo):
    """The small-call workload: calls of 400 samples, the smallest a caller of
    the package makes (the CLI acceptance test), so that a fixed cost per
    call shows.  The CLI runs its default of 10,000 samples."""

    name = "mc-k8"
    traced_rounds = 1

    def __init__(self, seed):
        super().__init__(seed, 8, 4, samples=400, calls=4, cli_samples=10000)

    def build(self):
        # The paper's own parameters: n = 24 over BSC(Phi(-1)) / BSC(Phi(-1/sqrt 2)).
        p, p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(1.0, 1.0))
        params = wl.params_from_channel(self.n, p, p_w, 0.01)
        if (params.k_fine, params.k_coarse) != (self.k_fine, self.k_coarse):
            raise checks.CheckError(f"params_from_channel gave {params}, want (24, 8, 4)")
        super().build()


class LpnRoundtrip(Workload):
    """Toy LPN parameters, one key; each message is encrypted, serialized,
    parsed back and decrypted."""

    name = "lpn-roundtrip"
    messages_per_round = 768
    round_items = messages_per_round
    traced_rounds = 1
    # Four [7,4] Hamming blocks: minimum distance 3 corrects any one error.
    radius = 1

    def build(self):
        self.params = wl.LpnParams(4, 8, 16, 28, 0.005)
        self.key_seed = self.rand.randbytes(16)
        self.key = wl.keygen(wl.prng_stream(self.key_seed), self.params)
        self.key.code._fine_words  # warm-up: the decoder's lazy table
        self.round = []
        self.ok = 0
        self.total = 0

    def run_round(self):
        key, params = self.key, self.params
        failed = 0
        self.round = []
        for _ in range(self.messages_per_round):
            seed = self.rand.randbytes(16)
            plain = self.rand.getrandbits(params.l)
            try:
                ct = wl.encrypt(key, params, wl.BitVector(params.l, plain), wl.prng_stream(seed))
                parsed = wl.ciphertext_from_text(wl.ciphertext_to_text(ct))
                out = wl.decrypt(key, params, parsed)
            except Exception:
                failed += 1
                continue
            self.round.append((seed, plain, out.bits, ct, parsed))
        return failed

    def after_round(self):
        params = self.params
        outcomes = []
        for seed, plain, out, ct, parsed in self.round:
            checks.require(parsed == ct, "ciphertext changed through text round trip")
            u, v = checks.replay_lpn_noise(seed, params.m - params.l, params.k, params.n, params.p)
            checks.require(u == ct.u.bits, "replayed stream disagrees with the ciphertext's u")
            outcomes.append((plain, out, v.bit_count()))
        self.ok += checks.check_decryptions(outcomes, self.radius)
        self.total += len(outcomes)
        self.round = []

    def check(self):
        p_eff = round(self.params.p * 4294967296.0) / 4294967296.0
        bound = checks.binomial_at_most(self.params.n, p_eff, self.radius)
        if self.total:
            checks.check_success_rate(self.ok, self.total, bound)

    def cli_sequence(self, workdir):
        params = self.params
        key_text = wl.key_to_text(self.key, params)
        key_path = workdir / "key.txt"
        key_path.write_text(key_text, encoding="utf-8")
        plain = self.rand.getrandbits(params.l)
        ct_seed = self.rand.randbytes(16)
        ct = wl.encrypt(self.key, params, wl.BitVector(params.l, plain), wl.prng_stream(ct_seed))
        ct_text = wl.ciphertext_to_text(ct)
        ct_path = workdir / "ct.txt"
        ct_path.write_text(ct_text, encoding="utf-8")
        out = wl.decrypt(self.key, params, ct)
        spec = f"{params.l},{params.m},{params.k},{params.n},{params.p!r}"
        return [
            (["lpn", "keygen", "--params", spec, "--seed", self.key_seed.hex()], lambda: key_text),
            (
                ["lpn", "encrypt", "--key", str(key_path), "--message", f"{plain:02x}",
                 "--seed", ct_seed.hex()],
                lambda: ct_text,
            ),
            (
                ["lpn", "decrypt", "--key", str(key_path), "--ct", str(ct_path)],
                lambda: f"{out.bits:02x}\n",
            ),
        ]

    def layer_timings(self):
        key, params, code = self.key, self.params, self.key.code
        inputs = [
            (wl.BitVector(params.l, self.rand.getrandbits(params.l)), self.rand.randbytes(16))
            for _ in range(256)
        ]
        cts = [wl.encrypt(key, params, a, wl.prng_stream(s)) for a, s in inputs]
        targets = [wl.BitVector(params.m, self.rand.getrandbits(params.m)) for _ in inputs]
        received = [wl.BitVector(params.n, self.rand.getrandbits(params.n)) for _ in inputs]
        stream = wl.prng_stream(self.rand.randbytes(16))
        key_text = wl.key_to_text(key, params)
        return {
            "lpn.encrypt_us": 1e6 * seconds_per_call(
                [(wl.encrypt, (key, params, a, wl.prng_stream(s))) for a, s in inputs]
            ),
            "lpn.decrypt_us": 1e6 * seconds_per_call([(wl.decrypt, (key, params, c)) for c in cts]),
            "coset.encode_us": 1e6 * seconds_per_call([(wl.encode, (code, t, stream)) for t in targets]),
            "coset.decode_ml_us": 1e6 * seconds_per_call(
                [(wl.decode_ml, (code, y, params.p)) for y in received]
            ),
            "lpn.key_from_text_us": 1e6 * seconds_per_call([(wl.key_from_text, (key_text,))] * 64),
        }


class SecrecyAnalysis(Workload):
    """Operating points (sigma_M^2, sigma_W^2) with total variance from 0.06 to
    50.  The grid is fixed so that every seed does the same quadrature work;
    the seed orders the points and picks the CLI's operating point."""

    name = "secrecy-analysis"
    sigma_m = (0.03, 0.08, 0.25, 0.8, 2.5, 10.0)
    # sigma_W^2 / sigma_M^2 >= 1 keeps every loss below its saturation at 1,
    # so the loss must fall strictly along each row.
    ratios = (1.0, 1.5, 2.5, 4.0)
    levels = (2, 4, 8, 16, 32, 64, 128, 256)
    round_items = len(sigma_m) * len(ratios)
    traced_rounds = 2

    def build(self):
        points = [(sm, sm * r) for sm in self.sigma_m for r in self.ratios]
        self.order = self.rand.sample(points, len(points))
        self.results = {}
        self.cli_sm = self.rand.choice(self.sigma_m)
        self.cli_sw = self.cli_sm * self.rand.choice(self.ratios)

    def run_round(self):
        failed = 0
        self.round = {}
        for sm, sw in self.order:
            try:
                p, p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(sm, sw))
                c_s = wl.secrecy_capacity_bsc(p, p_w)
                i_xw = wl.awgn_mutual_information(sm + sw)
                loss = wl.equivocation_loss(p, p_w, i_xw)
                sweep = wl.quantizer_sweep(sm, sw, self.levels)
            except Exception:
                failed += 1
                continue
            self.round[(sm, sw)] = {
                "p": p, "p_w": p_w, "c_s": c_s, "i_xw": i_xw, "loss": loss, "sweep": sweep
            }
        return failed

    def after_round(self):
        for point, result in self.round.items():
            first = self.results.setdefault(point, result)
            checks.require(first == result, f"point {point} changed between rounds")

    def check(self):
        for point, result in self.results.items():
            reference = checks.awgn_mi_reference(point[0] + point[1])
            checks.check_operating_point(point, result, reference, tol=1e-9)
        for sm in self.sigma_m:
            row = [
                (sm * r, self.results[(sm, sm * r)]["loss"])
                for r in self.ratios
                if (sm, sm * r) in self.results
            ]
            checks.check_loss_decreasing(row)

    def cli_sequence(self, workdir):
        sm, sw = self.cli_sm, self.cli_sw
        grid = [sm * r for r in self.ratios]
        point = ["--sigma-m-sq", repr(sm), "--sigma-w-sq", repr(sw)]
        return [
            (["capacity"] + point, self._capacity_csv),
            (
                ["loss-curve", "--sigma-m-sq", repr(sm), "--grid", ",".join(repr(g) for g in grid)],
                lambda: self._loss_curve_csv(sm, grid),
            ),
            (
                ["quantizer-sweep"] + point + ["--levels", ",".join(map(str, self.levels))],
                self._sweep_csv,
            ),
        ]

    def _capacity_csv(self):
        p, p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(self.cli_sm, self.cli_sw))
        values = (p, p_w, wl.binary_entropy(p), wl.binary_entropy(p_w), wl.secrecy_capacity_bsc(p, p_w))
        return f"{CAPACITY_HEADER}\n{','.join(fmt(v) for v in values)}\n"

    @staticmethod
    def _loss_curve_csv(sm, grid):
        lines = [LOSS_CURVE_HEADER] + [
            ",".join(fmt(v) for v in (pt.sigma_w_sq, pt.p, pt.p_w, pt.i_xw, pt.loss))
            for pt in wl.loss_curve(sm, grid)
        ]
        return "\n".join(lines) + "\n"

    def _sweep_csv(self):
        sm, sw = self.cli_sm, self.cli_sw
        p, p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(sm, sw))
        lines = [SWEEP_HEADER] + [
            f"{lvl},{fmt(i_hat)},{fmt(loss)}" for lvl, i_hat, loss in wl.quantizer_sweep(sm, sw, self.levels)
        ]
        i_inf = wl.awgn_mutual_information(sm + sw)
        lines.append(f"inf,{fmt(i_inf)},{fmt(wl.equivocation_loss(p, p_w, i_inf))}")
        return "\n".join(lines) + "\n"

    def layer_timings(self):
        totals = [sm + sw for sm, sw in self.order]
        quantizers = [
            (total, wl.uniform_quantizer(levels, wl.default_half_range(total)))
            for total in totals
            for levels in self.levels
        ]
        return {
            "infometrics.awgn_mi_us": 1e6 * seconds_per_call(
                [(wl.awgn_mutual_information, (t,)) for t in totals]
            ),
            "infometrics.quantized_mi_us": 1e6 * seconds_per_call(
                [(wl.quantized_mutual_information, q) for q in quantizers]
            ),
        }


WORKLOADS = {cls.name: cls for cls in (McK16, McK8, LpnRoundtrip, SecrecyAnalysis)}
