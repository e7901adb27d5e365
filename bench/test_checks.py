"""Tests of the benchmark's checks: each reference agrees with the program on
good output and each check rejects a slightly perturbed value.

    python -m pytest bench -q
"""

import importlib.util
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import wiretaplab as wl

import checks
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def test_benchmark_json_lists_what_a_run_reports():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    definition = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in definition["end_to_end"]} == {
        "setup_s", "items_per_s", "cli_s", "peak_rss_mb"
    }


def small_code(seed=b"bench-test-code!", n=12, k_fine=8, k_coarse=4):
    params = wl.WiretapCodeParams(n, k_fine, k_coarse, k_fine - k_coarse, 0.01)
    return wl.random_coset_code(wl.prng_stream(seed), params)


def brute_force_equivocation(code, p):
    """H(S|Z)/K by enumerating every message, coset member and output."""
    n, k = code.n, code.k_msg
    words = code._fine_words.reshape(1 << k, -1)
    joint = {}
    for s in range(1 << k):
        for x in words[s]:
            for z in range(1 << n):
                d = bin(int(x) ^ z).count("1")
                prob = p**d * (1 - p) ** (n - d) / (1 << k) / words.shape[1]
                joint.setdefault(z, [0.0] * (1 << k))[s] += prob
    h = 0.0
    for row in joint.values():
        total = sum(row)
        h -= sum(q * math.log2(q / total) for q in row if q > 0)
    return h / k


def test_transform_reference_matches_brute_force():
    code = small_code(n=6, k_fine=4, k_coarse=1)
    reference = checks.syndrome_equivocation(code.h.row_words, code.zero_len, code.msg_len, 0.2)
    assert reference == pytest.approx(brute_force_equivocation(code, 0.2), abs=1e-13)


@pytest.mark.parametrize("shift", [1e-9, -1e-9])
def test_exact_check_rejects_shifted_equivocation(shift):
    code = small_code()
    reference = checks.syndrome_equivocation(code.h.row_words, code.zero_len, code.msg_len, 0.24)
    value = wl.exact_equivocation(code, wl.Bsc(0.24)).equivocation
    checks.check_exact(value, reference, "code")
    with pytest.raises(checks.CheckError):
        checks.check_exact(value + shift, reference, "code")


def test_monte_carlo_check_rejects_shifted_mean():
    batches = [(100, 0.90, 0.002), (100, 0.91, 0.002)]
    checks.check_monte_carlo(batches, 0.905, "code")
    with pytest.raises(checks.CheckError):
        checks.check_monte_carlo(batches, 0.905 + 6 * 0.002, "code")


@pytest.mark.parametrize("sigma_sq", [0.06, 1.0, 50.0])
def test_awgn_check_rejects_ten_tolerances(sigma_sq):
    tol = 1e-9
    reference = checks.awgn_mi_reference(sigma_sq)
    value = wl.awgn_mutual_information(sigma_sq, tol)
    checks.check_awgn_mi(value, reference, tol, "point")
    with pytest.raises(checks.CheckError):
        checks.check_awgn_mi(value + 10 * tol, reference, tol, "point")


def operating_point(sm, sw, levels=(2, 4, 8, 16)):
    p, p_w = wl.crossover_probabilities(wl.AwgnSplitChannel(sm, sw))
    i_xw = wl.awgn_mutual_information(sm + sw)
    return {
        "p": p, "p_w": p_w, "c_s": wl.secrecy_capacity_bsc(p, p_w), "i_xw": i_xw,
        "loss": wl.equivocation_loss(p, p_w, i_xw), "sweep": wl.quantizer_sweep(sm, sw, levels),
    }


@pytest.mark.parametrize(
    "field, perturb",
    [
        ("c_s", lambda r: r["c_s"] + 1e-9),
        ("p_w", lambda r: r["p_w"] + 1e-9),
        ("sweep", lambda r: [(2, r["sweep"][0][1] + 1e-9, r["sweep"][0][2])] + r["sweep"][1:]),
        ("sweep", lambda r: r["sweep"][:1] + [(4, r["sweep"][0][1] - 1e-6, r["sweep"][1][2])] + r["sweep"][2:]),
        ("loss", lambda r: r["loss"] + 1e-9),
    ],
)
def test_operating_point_check_rejects_perturbations(field, perturb):
    point = (1.0, 1.5)
    result = operating_point(*point)
    reference = checks.awgn_mi_reference(sum(point))
    checks.check_operating_point(point, result, reference, 1e-9)
    with pytest.raises(checks.CheckError):
        checks.check_operating_point(point, dict(result, **{field: perturb(result)}), reference, 1e-9)


def test_loss_check_rejects_a_rise():
    row = [(sw, wl.max_equivocation_loss(1.0, sw)) for sw in (1.0, 1.5, 2.5)]
    checks.check_loss_decreasing(row)
    with pytest.raises(checks.CheckError):
        checks.check_loss_decreasing([row[0], row[0]])


def test_replay_stream_matches_program_stream():
    seed = b"replay-stream-seed"
    program = wl.prng_stream(seed)
    replay = checks.ReplayStream(seed)
    for count in (4, 16, 32, 7, 300, 1):
        assert program.next_bits(count) == replay.bits(count)


def find_noiseless_seed(params):
    for index in itertools.count():
        seed = index.to_bytes(16, "big")
        u, v = checks.replay_lpn_noise(seed, params.m - params.l, params.k, params.n, params.p)
        if v == 0:
            return seed, u


def test_lpn_check_rejects_flipped_plaintext_bit():
    params = wl.LpnParams(4, 8, 16, 28, 0.005)
    key = wl.keygen(wl.prng_stream(b"bench-test-key!!"), params)
    seed, u = find_noiseless_seed(params)
    plain = 0b1011
    ct = wl.encrypt(key, params, wl.BitVector(4, plain), wl.prng_stream(seed))
    assert ct.u.bits == u
    out = wl.decrypt(key, params, ct).bits
    assert checks.check_decryptions([(plain, out, 0)], radius=1) == 1
    with pytest.raises(checks.CheckError):
        checks.check_decryptions([(plain, out ^ 1, 0)], radius=1)
    # Beyond the radius a wrong plaintext is allowed, but counts against the rate.
    assert checks.check_decryptions([(plain, out ^ 1, 2)], radius=1) == 0
    bound = checks.binomial_at_most(28, 0.005, 1)
    checks.check_success_rate(1000, 1000, bound)
    with pytest.raises(checks.CheckError):
        checks.check_success_rate(950, 1000, bound)


def test_cli_check_rejects_one_changed_byte(tmp_path):
    work = workloads.SecrecyAnalysis(seed=1)
    work.build()
    argv, expected = work.cli_sequence(tmp_path)[0]
    proc = subprocess.run(
        [sys.executable, "-m", "wiretaplab.cli", *argv],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    expected = expected()
    checks.check_cli_output(argv, proc.stdout, expected)
    changed = proc.stdout[:5] + chr(ord(proc.stdout[5]) ^ 1) + proc.stdout[6:]
    with pytest.raises(checks.CheckError):
        checks.check_cli_output(argv, changed, expected)
