from pathlib import Path

from wiretaplab.cli import main
from wiretaplab.infometrics import binary_entropy

GOLDEN = Path(__file__).parent / "golden"
SEED = "5eed" * 8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_stdout(capsys):
    code, out, err = run(capsys, "capacity", "--sigma-m-sq", "1", "--sigma-w-sq", "1")
    assert code == 0
    assert err == ""
    header, row = out.strip().splitlines()
    assert header == "p,p_w,h_p,h_p_w,c_s"
    p, p_w, h_p, h_p_w, c_s = (float(v) for v in row.split(","))
    assert abs(p - 0.15865525393145707) < 1e-12
    assert abs(p_w - 0.23975006109347674) < 1e-12
    assert abs(c_s - (h_p_w - h_p)) < 1e-12
    assert abs(c_s - 0.16354162521193161) < 1e-12


def test_capacity_no_wiretap_disadvantage(capsys):
    code, out, _ = run(capsys, "capacity", "--sigma-m-sq", "1", "--sigma-w-sq", "0")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[-1]) == 0.0


def test_capacity_override_flags(capsys):
    code, out, _ = run(capsys, "capacity", "--override-p", "0", "--override-p-w", "0.25")
    assert code == 0
    c_s = float(out.strip().splitlines()[1].split(",")[-1])
    assert abs(c_s - binary_entropy(0.25)) < 1e-12
    assert abs(c_s - 0.8113) < 1e-4


def test_capacity_bad_override_p_names_the_option(capsys):
    code, out, err = run(capsys, "capacity", "--override-p", "0.7", "--override-p-w", "0.3")
    assert (code, out) == (1, "")
    assert "crossover probability --override-p must be in [0, 1/2], got 0.7" in err, err


def test_capacity_bad_override_p_w_names_the_option(capsys):
    code, out, err = run(
        capsys, "capacity", "--sigma-m-sq", "1", "--sigma-w-sq", "1", "--override-p-w", "nan"
    )
    assert (code, out) == (1, "")
    assert "crossover probability --override-p-w must be in [0, 1/2], got nan" in err, err


def test_capacity_missing_inputs(capsys):
    code, out, err = run(capsys, "capacity")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_non_finite_variances_rejected_with_field_named(capsys):
    code, out, err = run(capsys, "capacity", "--sigma-m-sq", "nan", "--sigma-w-sq", "1")
    assert (code, out) == (1, "")
    assert "sigma_m_sq must be finite and >= 0, got nan" in err
    code, out, err = run(capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "nan")
    assert (code, out) == (1, "")
    assert "sigma_w_sq must be finite and > 0, got nan" in err
    code, out, err = run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "inf", "--levels", "2"
    )
    assert (code, out) == (1, "")
    assert "sigma_w_sq must be finite and >= 0, got inf" in err


def test_loss_curve_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, err = run(
        capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "0.5:8:16",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "sigma_w_sq,p,p_w,i_xw,loss"
    assert len(lines) == 17
    losses = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    # Single-point grid reproduces the quoted half-bit loss.
    single = tmp_path / "one.csv"
    run(capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "1", "--out", str(single))
    loss = float(single.read_text().splitlines()[1].split(",")[4])
    assert abs(loss - 0.5) < 0.05


def test_loss_curve_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run(
            capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "0.5:4:6",
            "--out", str(path),
        )[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_equivocation_example1_exact(capsys):
    code, out, _ = run(
        capsys, "equivocation", "--example1", "--p-w", "0.25", "--mode", "exact"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "equivocation,rate,error_prob,method,stderr"
    fields = row.split(",")
    assert abs(float(fields[0]) - 0.954434002924965) < 1e-12
    assert fields[3] == "exact"


def test_equivocation_example1_half_noise(capsys):
    _, out, _ = run(capsys, "equivocation", "--example1", "--p-w", "0.5")
    assert float(out.strip().splitlines()[1].split(",")[0]) == 1.0


def test_equivocation_mc_deterministic(capsys):
    argv = (
        "equivocation", "--example1", "--p-w", "0.25", "--mode", "mc",
        "--samples", "500", "--seed", SEED,
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.strip().splitlines()[1].split(",")[3] == "monte-carlo"
    # Per-worker substream partitioning is also seed-reproducible.
    argv_workers = argv + ("--workers", "3")
    _, out3, _ = run(capsys, *argv_workers)
    _, out4, _ = run(capsys, *argv_workers)
    assert out3 == out4


def test_equivocation_mc_pinned_stdout(capsys):
    # Frozen from the per-sample posterior that the batched one replaced: the
    # stdout of this command line before the weight table and batches went in.
    # The per-sample entropy of this code is constant, so the workers=3 layout
    # prints the same row.
    expected = (
        "equivocation,rate,error_prob,method,stderr\n"
        "0.95443400292496483,0.5,nan,monte-carlo,9.9400816696758631e-18\n"
    )
    argv = (
        "equivocation", "--example1", "--p-w", "0.25", "--mode", "mc",
        "--samples", "500", "--seed", SEED,
    )
    for extra in ((), ("--workers", "3")):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out, err) == (0, expected, "")


def test_analysis_pinned_stdout(tmp_path, capsys):
    # Frozen from the commands' stdout while each handler still wrote its own
    # text; every table goes through one formatter now.
    code_path = tmp_path / "code.txt"
    code_path.write_text("12,8,4\n8,12:9082ef26716304c0167c52ed\n")
    for argv, expected in (
        (
            ("capacity", "--sigma-m-sq", "1", "--sigma-w-sq", "1"),
            "p,p_w,h_p,h_p_w,c_s\n"
            "0.15865525393145707,0.23975006109347677,0.63108276740554203,"
            "0.79462439261747375,0.16354162521193172\n",
        ),
        (
            ("capacity", "--override-p", "0", "--override-p-w", "0.25"),
            "p,p_w,h_p,h_p_w,c_s\n0,0.25,0,0.81127812445913283,0.81127812445913283\n",
        ),
        (
            ("loss-curve", "--sigma-m-sq", "1", "--grid", "0.5:2:3"),
            "sigma_w_sq,p,p_w,i_xw,loss\n"
            "0.5,0.15865525393145707,0.20710808912126252,0.36382084718248153,0.95138692994010776\n"
            "1.25,0.15865525393145707,0.25249253754692291,0.26386137870151927,0.42942285851100587\n"
            "2,0.15865525393145707,0.2818514308253865,0.20695731322741451,0.28613808618074721\n",
        ),
        (
            ("quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1", "--levels", "2,4,16"),
            "levels,i_x_zhat,loss\n"
            "2,0.20537560738252625,0\n"
            "4,0.20537560777185904,2.3806342130109877e-09\n"
            "16,0.27355124881380144,0.4168702698345278\n"
            "inf,0.29048011336084789,0.52038437228464429\n",
        ),
        (
            ("equivocation", "--example1", "--p-w", "0.25", "--mode", "exact"),
            "equivocation,rate,error_prob,method,stderr\n"
            "0.95443400292496505,0.5,nan,exact,0\n",
        ),
        (
            ("equivocation", "--code-file", str(code_path), "--p-w", "0.2", "--mode", "exact"),
            "equivocation,rate,error_prob,method,stderr\n"
            "0.79038595709849546,0.33333333333333331,nan,exact,0\n",
        ),
    ):
        assert run(capsys, *argv) == (0, expected, ""), argv


def test_equivocation_bad_p_w_names_the_option(capsys):
    code, out, err = run(capsys, "equivocation", "--example1", "--p-w", "0.7")
    assert (code, out) == (1, "")
    assert "crossover probability --p-w must be in [0, 1/2], got 0.7" in err, err


MC_ARGV = ("equivocation", "--example1", "--p-w", "0.25", "--mode", "mc", "--seed", SEED)


def test_equivocation_bad_samples_names_the_option(capsys):
    assert run(capsys, *MC_ARGV, "--samples", "0") == (
        1, "", "wiretaplab: error: --samples must be >= 1, got 0\n"
    )


def test_equivocation_bad_workers_names_the_option(capsys):
    assert run(capsys, *MC_ARGV, "--workers", "0") == (
        1, "", "wiretaplab: error: --workers must be >= 1, got 0\n"
    )


def test_short_seed_names_the_option(capsys):
    # equivocation and lpn keygen/encrypt read --seed through one parser.
    for argv in (
        MC_ARGV,
        ("lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED),
    ):
        assert run(capsys, *argv[:-1], "0011") == (
            1, "", "wiretaplab: error: --seed '0011': seed must be >= 16 bytes, got 2\n"
        ), argv


def test_equivocation_mc_requires_seed(capsys):
    code, out, err = run(
        capsys, "equivocation", "--example1", "--p-w", "0.25", "--mode", "mc"
    )
    assert code == 1
    assert "seed" in err


def test_equivocation_code_file(tmp_path, capsys):
    from wiretaplab.coset import code_to_text, random_coset_code, WiretapCodeParams
    from wiretaplab.prng import prng_stream

    code_obj = random_coset_code(
        prng_stream(b"cli-code-file-01!"), WiretapCodeParams(10, 6, 3, 3, 0.01)
    )
    path = tmp_path / "code.txt"
    path.write_text(code_to_text(code_obj))
    code, out, _ = run(
        capsys, "equivocation", "--code-file", str(path), "--p-w", "0.2"
    )
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[0])
    assert 0.0 <= value <= 1.0


def test_equivocation_refuses_two_codes(tmp_path, capsys):
    # --example1 would win, and a --code-file that does not even exist would
    # be ignored without a word.
    missing = tmp_path / "missing.txt"
    code, out, err = run(
        capsys, "equivocation", "--example1", "--code-file", str(missing), "--p-w", "0.2"
    )
    assert (code, out) == (1, "")
    assert "--example1 and --code-file" in err, err


def test_equivocation_budget_reported(tmp_path, capsys):
    from wiretaplab.coset import code_to_text, uncoded_code

    path = tmp_path / "big.txt"
    path.write_text(code_to_text(uncoded_code(25)))
    code, out, err = run(
        capsys, "equivocation", "--code-file", str(path), "--p-w", "0.2"
    )
    assert code == 1
    assert out == ""
    assert "n - k_coarse <= 24 syndrome rows" in err  # the budget is stated in the diagnostic


def test_code_file_bad_header_names_file_and_header(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("2,1,0,9\n1,2:03\n")
    code, out, err = run(capsys, "equivocation", "--code-file", str(path), "--p-w", "0.2")
    assert (code, out) == (1, "")
    assert f"error: {path}: bad header '2,1,0,9'" in err


def test_code_file_bad_hex_names_file_and_field(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("2,1,0\n1,2:zz\n")
    code, out, err = run(capsys, "equivocation", "--code-file", str(path), "--p-w", "0.2")
    assert (code, out) == (1, "")
    assert f"error: {path}: '1,2:zz': non-hexadecimal" in err


def test_key_file_spaced_hex_names_file_and_field(tmp_path, capsys):
    key = tmp_path / "key.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.005", "--seed", SEED, "--out", str(key))
    lines = key.read_text().splitlines()
    head, _, digits = lines[1].partition(":")
    lines[1] = f"{head}:{digits[:2]} {digits[2:]}"
    key.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys, "lpn", "encrypt", "--key", str(key), "--message", "0e", "--seed", "ab" * 16
    )
    assert (code, out) == (1, "")
    assert f"error: {key}: {lines[1]!r}: whitespace inside the hex field" in err


def test_quantizer_sweep(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1",
        "--levels", "2,4,8,16,32,64,128,256", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "levels,i_x_zhat,loss"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[2]) == 0.0
    losses = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))
    assert lines[-1].split(",")[0] == "inf"
    # Matches the loss-curve value at the same variances.
    curve = tmp_path / "curve.csv"
    run(capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "1", "--out", str(curve))
    curve_loss = float(curve.read_text().splitlines()[1].split(",")[4])
    assert abs(losses[-1] - curve_loss) < 1e-3
    # Deterministic output file.
    again = tmp_path / "sweep2.csv"
    run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1",
        "--levels", "2,4,8,16,32,64,128,256", "--out", str(again),
    )
    assert again.read_bytes() == out_file.read_bytes()


def test_quantizer_sweep_rejects_zero_wiretap_variance(capsys):
    code, out, err = run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "0", "--levels", "2"
    )
    assert (code, out) == (1, "")
    assert "sigma_w_sq must be finite and > 0, got 0.0" in err, err


def test_quantizer_sweep_rejects_odd_levels(capsys):
    code, out, err = run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1",
        "--levels", "2,3,4",
    )
    assert code == 1
    assert out == ""
    assert "odd level count 3" in err


def test_lpn_pipeline_roundtrip(tmp_path, capsys):
    key = tmp_path / "key.txt"
    ct = tmp_path / "ct.txt"
    assert run(
        capsys, "lpn", "keygen", "--params", "4,8,16,28,0.005", "--seed", SEED,
        "--out", str(key),
    )[0] == 0
    assert run(
        capsys, "lpn", "encrypt", "--key", str(key), "--message", "0e",
        "--seed", "ab" * 16, "--out", str(ct),
    )[0] == 0
    code, out, err = run(capsys, "lpn", "decrypt", "--key", str(key), "--ct", str(ct))
    assert code == 0
    assert out.strip() == "0e"


def test_lpn_keygen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
            "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_lpn_golden_vector_reproduces(tmp_path, capsys):
    key = tmp_path / "key.txt"
    ct = tmp_path / "ct.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
        "--out", str(key))
    assert key.read_bytes() == (GOLDEN / "lpn_key_5eed.txt").read_bytes()
    run(capsys, "lpn", "encrypt", "--key", str(key), "--message", "0b",
        "--seed", SEED, "--out", str(ct))
    assert ct.read_bytes() == (GOLDEN / "lpn_ct_5eed.txt").read_bytes()


def test_lpn_wrong_key_mismatches(tmp_path, capsys):
    right = tmp_path / "right.txt"
    ct = tmp_path / "ct.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.005", "--seed", SEED,
        "--out", str(right))
    mismatches = 0
    for i in range(100):
        wrong = tmp_path / f"wrong-{i}.txt"
        run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.005",
            "--seed", f"{i:032x}", "--out", str(wrong))
        run(capsys, "lpn", "encrypt", "--key", str(right), "--message", "05",
            "--seed", f"{i + 1000:032x}", "--out", str(ct))
        _, out, _ = run(capsys, "lpn", "decrypt", "--key", str(wrong), "--ct", str(ct))
        mismatches += out.strip() != "05"
    assert mismatches >= 90


def test_lpn_missing_file_errors(capsys):
    code, out, err = run(capsys, "lpn", "decrypt", "--key", "/no/such/key", "--ct", "/no/such/ct")
    assert code == 1
    assert out == ""
    assert err != ""


def test_lpn_message_too_long(tmp_path, capsys):
    key = tmp_path / "key.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
        "--out", str(key))
    code, _, err = run(
        capsys, "lpn", "encrypt", "--key", str(key), "--message", "ff",
        "--seed", SEED,
    )
    assert code == 1
    assert "--message 'ff': 4 bits need 1 hex bytes, zero-padded" in err, err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma-m-sq=1\nsigma-w-sq=1\n")
    _, from_cfg, _ = run(capsys, "capacity", "--config", str(cfg))
    _, from_flags, _ = run(capsys, "capacity", "--sigma-m-sq", "1", "--sigma-w-sq", "1")
    assert from_cfg == from_flags
    # A flag beats the config file.
    _, overridden, _ = run(
        capsys, "capacity", "--config", str(cfg), "--sigma-w-sq", "2"
    )
    assert overridden != from_cfg
    p_w = float(overridden.strip().splitlines()[1].split(",")[1])
    assert abs(p_w - 0.28185143082538655) < 1e-12  # Phi(-1/sqrt(3))


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_m_sq=1\nsigma-w-sq=1\n")
    code, out, err = run(capsys, "capacity", "--config", str(cfg), "--sigma-m-sq", "1")
    assert (code, out) == (1, "")
    assert "unknown config key 'sigma_m_sq'" in err
    # A flag that takes no value cannot come from the file either.
    cfg.write_text("example1=1\np-w=0.25\n")
    code, out, err = run(capsys, "equivocation", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "unknown config key 'example1'" in err


def test_config_bad_value_names_key_and_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma-m-sq=abc\nsigma-w-sq=1\n")
    code, out, err = run(capsys, "capacity", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "'sigma-m-sq'" in err and "'abc'" in err and str(cfg) in err
    cfg.write_text("samples=1e3\n")
    code, out, err = run(
        capsys, "equivocation", "--example1", "--p-w", "0.25", "--mode", "mc",
        "--seed", SEED, "--config", str(cfg),
    )
    assert (code, out) == (1, "")
    assert "'samples'" in err and "'1e3'" in err and str(cfg) in err
    # List and choice values pass the option's own type and choices.
    for command, line in (
        ("loss-curve", "grid=1,abc"),
        ("quantizer-sweep", "levels=2,x"),
        ("equivocation", "mode=bogus"),
    ):
        key, value = line.split("=")
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, ""), line
        assert f"'{key}'" in err and f"'{value}'" in err and str(cfg) in err


def test_bad_mode_rejected(capsys):
    code, _, err = run(
        capsys, "equivocation", "--example1", "--p-w", "0.25", "--mode", "bogus"
    )
    assert code == 2  # argparse rejects the choice


def test_bad_list_flag_names_option(capsys):
    code, out, err = run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1",
        "--levels", "2,x",
    )
    assert (code, out) == (2, "")
    assert "--levels" in err
    code, out, err = run(capsys, "loss-curve", "--sigma-m-sq", "1", "--grid", "1,abc")
    assert (code, out) == (2, "")
    assert "--grid" in err


def test_bad_list_flag_gives_reason(tmp_path, capsys):
    commands = {
        "--grid": ("loss-curve", "--sigma-m-sq", "1"),
        "--levels": ("quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1"),
    }
    for option, value, reason in (
        ("--grid", "1:2:0", "grid count must be >= 1"),
        ("--grid", "1:2", "expected lo:hi:count"),
        ("--grid", "0.5:x:4", "'x' is not a number"),
        ("--levels", "2,x", "'x' is not an integer"),
    ):
        code, out, err = run(capsys, *commands[option], option, value)
        assert (code, out) == (2, ""), value
        assert f"argument {option}: {reason}" in err, err
        assert "_parse" not in err
    # The same value from a config file still names the key and the file.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=1:2:0\n")
    code, out, err = run(capsys, "loss-curve", "--sigma-m-sq", "1", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert f"config key 'grid' in {cfg}: bad value '1:2:0' (grid count must be >= 1)" in err


def test_lpn_params_errors_name_the_option(capsys):
    for spec, reason in (
        ("4,8", "expected l,m,k,n,p, got 2 values"),
        ("4,8,16,28,abc", "could not convert string to float: 'abc'"),
        ("4,8,16,28,0.7", "noise rate out of (0, 1/2): 0.7"),
    ):
        code, out, err = run(capsys, "lpn", "keygen", "--params", spec, "--seed", SEED)
        assert (code, out) == (1, ""), spec
        assert f"--params '{spec}': {reason}" in err, err


def test_lpn_message_errors_name_the_option(tmp_path, capsys):
    key = tmp_path / "key.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
        "--out", str(key))
    for message in ("zz", "1"):
        code, out, err = run(
            capsys, "lpn", "encrypt", "--key", str(key), "--message", message,
            "--seed", SEED,
        )
        assert (code, out) == (1, ""), message
        assert f"--message '{message}': non-hexadecimal number" in err, err


def test_lpn_message_of_wrong_byte_count_rejected(tmp_path, capsys):
    # l = 4 packs into one byte: no byte, or a zero second byte, is rejected
    # rather than read as 0 or 0b.
    key = tmp_path / "key.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
        "--out", str(key))
    for message in ("", "0b00", "000b"):
        code, out, err = run(
            capsys, "lpn", "encrypt", "--key", str(key), "--message", message,
            "--seed", SEED,
        )
        assert (code, out) == (1, ""), message
        assert f"--message '{message}': 4 bits need 1 hex bytes, zero-padded" in err, err


def test_lpn_message_with_whitespace_in_hex_rejected(tmp_path, capsys):
    # l = 10 packs into two bytes; bytes.fromhex alone would skip the space
    # between them, which every hex field of a key or ciphertext file refuses.
    key = tmp_path / "key.txt"
    run(capsys, "lpn", "keygen", "--params", "10,10,16,35,0.005", "--seed", SEED,
        "--out", str(key))
    code, out, err = run(
        capsys, "lpn", "encrypt", "--key", str(key), "--message", "0a 01", "--seed", SEED
    )
    assert (code, out) == (1, "")
    assert "--message '0a 01': whitespace inside the hex field" in err, err


def test_config_list_and_out_match_flags(tmp_path, capsys):
    flags_out = tmp_path / "flags.csv"
    cfg_out = tmp_path / "cfg.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sigma-m-sq=1\nsigma-w-sq=1\nlevels=2,4\nout={cfg_out}\n")
    assert run(capsys, "quantizer-sweep", "--config", str(cfg)) == (0, "", "")
    assert run(
        capsys, "quantizer-sweep", "--sigma-m-sq", "1", "--sigma-w-sq", "1",
        "--levels", "2,4", "--out", str(flags_out),
    ) == (0, "", "")
    assert cfg_out.read_bytes() == flags_out.read_bytes()


def test_config_mc_options_match_flags(tmp_path, capsys):
    from wiretaplab.coset import code_to_text, random_coset_code, WiretapCodeParams
    from wiretaplab.prng import prng_stream

    code_path = tmp_path / "code.txt"
    code_path.write_text(code_to_text(random_coset_code(
        prng_stream(b"cli-config-mc-01"), WiretapCodeParams(10, 6, 3, 3, 0.01)
    )))
    base = ("equivocation", "--code-file", str(code_path), "--p-w", "0.2")
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(f"mode=mc\nsamples=300\nseed={SEED}\n")
    from_cfg = run(capsys, *base, "--config", str(cfg))
    from_flags = run(capsys, *base, "--mode", "mc", "--samples", "300", "--seed", SEED)
    assert from_cfg == from_flags
    assert from_cfg[0] == 0
    # A flag on top of the file beats it.
    overridden = run(capsys, *base, "--config", str(cfg), "--samples", "500")
    assert overridden == run(
        capsys, *base, "--mode", "mc", "--samples", "500", "--seed", SEED
    )
    assert overridden[1] != from_cfg[1]


def test_file_parse_errors_name_the_file(tmp_path, capsys):
    key = tmp_path / "key.txt"
    ct = tmp_path / "ct.txt"
    run(capsys, "lpn", "keygen", "--params", "4,8,16,28,0.05", "--seed", SEED,
        "--out", str(key))
    run(capsys, "lpn", "encrypt", "--key", str(key), "--message", "0b",
        "--seed", SEED, "--out", str(ct))
    bad_code = tmp_path / "code.txt"
    bad_code.write_text("2,1\n2,2:09\n")
    bad_key = tmp_path / "bad-key.txt"
    bad_key.write_text(key.read_text().replace("lpn-key v1: 4,8,16,28,", "lpn-key v1: 4,8,"))
    bad_ct = tmp_path / "bad-ct.txt"
    bad_ct.write_text(ct.read_text().replace("lpn-ct v1: 28,16", "lpn-ct v1: 28"))
    for path, argv in (
        (bad_code, ("equivocation", "--code-file", str(bad_code), "--p-w", "0.2")),
        (bad_key, ("lpn", "decrypt", "--key", str(bad_key), "--ct", str(ct))),
        (bad_ct, ("lpn", "decrypt", "--key", str(key), "--ct", str(bad_ct))),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), path
        assert f"error: {path}: " in err
