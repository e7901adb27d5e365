"""Command-line front end: channel analysis, equivocation runs, LPN pipeline.

Every stochastic subcommand takes an explicit --seed (hex, at least 16 bytes);
there is no ambient randomness, so a command line reproduces its output
byte for byte.  Data goes to stdout or the --out file, diagnostics to stderr,
exit status 0 only on success.  Options may also come from a --config file of
key=value lines (flag beats file beats default); a key that is not a value
option of the subcommand is an error.
"""

from __future__ import annotations

import argparse
import sys

from .channels import AwgnSplitChannel, Bsc, crossover_probabilities
from .coset import (
    EQUIVOCATION_CSV_HEADER,
    code_from_text,
    exact_equivocation,
    example1_code,
    monte_carlo_equivocation,
)
from .infometrics import (
    awgn_mutual_information,
    binary_entropy,
    equivocation_loss,
    loss_curve,
    quantizer_sweep,
    secrecy_capacity_bsc,
)
from .lpn import (
    LpnParams,
    ciphertext_from_text,
    ciphertext_to_text,
    decrypt,
    encrypt,
    key_from_text,
    key_to_text,
    keygen,
)
from .gf2 import BitVector
from .prng import prng_stream

LOSS_CURVE_HEADER = "sigma_w_sq,p,p_w,i_xw,loss"
CAPACITY_HEADER = "p,p_w,h_p,h_p_w,c_s"
SWEEP_HEADER = "levels,i_x_zhat,loss"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_seed(text: str):
    try:
        seed = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"seed must be hex: {exc}") from exc
    return prng_stream(seed)


def _parse_grid(spec: str) -> list:
    """Either 'lo:hi:count' (inclusive linear grid) or a comma list."""
    if ":" in spec:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]
    return [float(v) for v in spec.split(",")]


# Parsed fields that no key=value line can set: the subcommand's bookkeeping,
# the config path itself, its positional action and flags that take no value.
_NOT_CONFIG_KEYS = {"command", "handler", "config", "lpn_action", "example1"}


def _load_config(path: str, args) -> dict:
    """key=value lines; every key must be a value option of the subcommand."""
    known = {dest.replace("_", "-") for dest in vars(args) if dest not in _NOT_CONFIG_KEYS}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key = key.strip()
            if key not in known:
                raise ValueError(
                    f"unknown config key {key!r} in {path} for {args.command} "
                    f"(known: {', '.join(sorted(known))})"
                )
            values[key] = value.strip()
    return values


def _resolve(args, name: str, cast=None, required: bool = False, default=None):
    """Flag > config file > default; argparse stores unset flags as None."""
    value = getattr(args, name.replace("-", "_"))
    if value is None and args.config_values is not None:
        raw = args.config_values.get(name)
        if raw is not None:
            try:
                value = cast(raw) if cast else raw
            except ValueError as exc:
                raise ValueError(
                    f"config key {name!r} in {args.config}: bad value {raw!r} ({exc})"
                ) from exc
    if value is None:
        value = default
    if value is None and required:
        raise ValueError(f"missing required option --{name}")
    return value


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_capacity(args) -> int:
    sigma_m_sq = _resolve(args, "sigma-m-sq", float)
    sigma_w_sq = _resolve(args, "sigma-w-sq", float)
    p = _resolve(args, "override-p", float)
    p_w = _resolve(args, "override-p-w", float)
    if p is None or p_w is None:
        if sigma_m_sq is None or sigma_w_sq is None:
            raise ValueError(
                "need --sigma-m-sq and --sigma-w-sq (or both --override-p "
                "and --override-p-w)"
            )
        ch_p, ch_p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sigma_w_sq))
        p = ch_p if p is None else p
        p_w = ch_p_w if p_w is None else p_w
    c_s = secrecy_capacity_bsc(p, p_w)
    row = ",".join(_fmt(v) for v in (p, p_w, binary_entropy(p), binary_entropy(p_w), c_s))
    _emit(f"{CAPACITY_HEADER}\n{row}\n", _resolve(args, "out"))
    return 0


def _cmd_loss_curve(args) -> int:
    sigma_m_sq = _resolve(args, "sigma-m-sq", float, required=True)
    grid = _parse_grid(_resolve(args, "grid", str, required=True))
    points = loss_curve(sigma_m_sq, grid)
    lines = [LOSS_CURVE_HEADER]
    for pt in points:
        lines.append(
            ",".join(_fmt(v) for v in (pt.sigma_w_sq, pt.p, pt.p_w, pt.i_xw, pt.loss))
        )
    _emit("\n".join(lines) + "\n", _resolve(args, "out"))
    return 0


def _cmd_equivocation(args) -> int:
    p_w = _resolve(args, "p-w", float, required=True)
    if args.example1:
        code = example1_code()
    else:
        code_file = _resolve(args, "code-file", str)
        if code_file is None:
            raise ValueError("need --example1 or --code-file")
        with open(code_file, encoding="utf-8") as fh:
            code = code_from_text(fh.read())
    mode = _resolve(args, "mode", str, default="exact")
    if mode == "exact":
        report = exact_equivocation(code, Bsc(p_w))
    elif mode == "mc":
        seed = _resolve(args, "seed", str, required=True)
        samples = _resolve(args, "samples", int, default=10000)
        workers = _resolve(args, "workers", int, default=1)
        report = monte_carlo_equivocation(
            code, Bsc(p_w), samples, _parse_seed(seed), workers=workers
        )
    else:
        raise ValueError(f"unknown mode {mode!r} (want exact or mc)")
    _emit(
        f"{EQUIVOCATION_CSV_HEADER}\n{report.to_csv_row()}\n",
        _resolve(args, "out"),
    )
    return 0


def _cmd_quantizer_sweep(args) -> int:
    sigma_m_sq = _resolve(args, "sigma-m-sq", float, required=True)
    sigma_w_sq = _resolve(args, "sigma-w-sq", float, required=True)
    levels_spec = _resolve(args, "levels", str, required=True)
    levels = [int(v) for v in levels_spec.split(",")]
    rows = quantizer_sweep(sigma_m_sq, sigma_w_sq, levels)
    p, p_w = crossover_probabilities(AwgnSplitChannel(sigma_m_sq, sigma_w_sq))
    i_inf = awgn_mutual_information(sigma_m_sq + sigma_w_sq)
    lines = [SWEEP_HEADER]
    for lvl, i_hat, loss in rows:
        lines.append(f"{lvl},{_fmt(i_hat)},{_fmt(loss)}")
    lines.append(f"inf,{_fmt(i_inf)},{_fmt(equivocation_loss(p, p_w, i_inf))}")
    _emit("\n".join(lines) + "\n", _resolve(args, "out"))
    return 0


def _parse_lpn_params(spec: str) -> LpnParams:
    l, m, k, n, p = spec.split(",")
    return LpnParams(int(l), int(m), int(k), int(n), float(p))


def _read_key(args):
    path = _resolve(args, "key", str, required=True)
    with open(path, encoding="utf-8") as fh:
        return key_from_text(fh.read())


def _cmd_lpn(args) -> int:
    action = args.lpn_action
    if action == "keygen":
        params = _parse_lpn_params(_resolve(args, "params", str, required=True))
        seed = _resolve(args, "seed", str, required=True)
        key = keygen(_parse_seed(seed), params)
        _emit(key_to_text(key, params), _resolve(args, "out"))
        return 0
    if action == "encrypt":
        key, params = _read_key(args)
        seed = _resolve(args, "seed", str, required=True)
        message_hex = _resolve(args, "message", str, required=True)
        bits = int.from_bytes(bytes.fromhex(message_hex), "little")
        if bits >> params.l:
            raise ValueError(f"message does not fit in {params.l} bits")
        ct = encrypt(key, params, BitVector(params.l, bits), _parse_seed(seed))
        _emit(ciphertext_to_text(ct), _resolve(args, "out"))
        return 0
    if action == "decrypt":
        key, params = _read_key(args)
        ct_path = _resolve(args, "ct", str, required=True)
        with open(ct_path, encoding="utf-8") as fh:
            ct = ciphertext_from_text(fh.read())
        plain = decrypt(key, params, ct)
        nbytes = (params.l + 7) // 8
        _emit(plain.bits.to_bytes(nbytes, "little").hex() + "\n", _resolve(args, "out"))
        return 0
    raise ValueError(f"unknown lpn action {action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretaplab",
        description="Wiretap-channel analysis and LPN crypto workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key=value option file (flag beats file)")
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("capacity", help="closed-form secrecy capacity of the split channel")
    sp.add_argument("--sigma-m-sq", type=float)
    sp.add_argument("--sigma-w-sq", type=float)
    sp.add_argument("--override-p", type=float)
    sp.add_argument("--override-p-w", type=float)
    add_common(sp)
    sp.set_defaults(handler=_cmd_capacity)

    sp = sub.add_parser("loss-curve", help="max equivocation loss over a wiretap-variance grid")
    sp.add_argument("--sigma-m-sq", type=float)
    sp.add_argument("--grid", help="lo:hi:count or comma list of variances")
    add_common(sp)
    sp.set_defaults(handler=_cmd_loss_curve)

    sp = sub.add_parser("equivocation", help="exact or Monte Carlo equivocation of a coset code")
    sp.add_argument("--example1", action="store_true", help="use the built-in length-2 code")
    sp.add_argument("--code-file", help="code file (header + hex matrix)")
    sp.add_argument("--p-w", type=float, help="wiretap crossover probability")
    sp.add_argument("--mode", choices=("exact", "mc"))
    sp.add_argument("--samples", type=int)
    sp.add_argument(
        "--workers",
        type=int,
        help="split the samples into this many per-worker substreams of the seed, "
        "a reproducible sample layout; all run in this process (default: 1)",
    )
    sp.add_argument("--seed", help="hex seed (required for mc mode)")
    add_common(sp)
    sp.set_defaults(handler=_cmd_equivocation)

    sp = sub.add_parser("quantizer-sweep", help="eavesdropper information and loss per A/D level count")
    sp.add_argument("--sigma-m-sq", type=float)
    sp.add_argument("--sigma-w-sq", type=float)
    sp.add_argument("--levels", help="comma list of level counts (each >= 2)")
    add_common(sp)
    sp.set_defaults(handler=_cmd_quantizer_sweep)

    sp = sub.add_parser("lpn", help="shared-key cryptosystem: keygen, encrypt, decrypt")
    sp.add_argument("lpn_action", choices=("keygen", "encrypt", "decrypt"))
    sp.add_argument("--params", help="l,m,k,n,p (keygen)")
    sp.add_argument("--key", help="key file path")
    sp.add_argument("--ct", help="ciphertext file path (decrypt)")
    sp.add_argument("--message", help="plaintext hex, little-endian packing (encrypt)")
    sp.add_argument("--seed", help="hex seed (keygen, encrypt)")
    add_common(sp)
    sp.set_defaults(handler=_cmd_lpn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.config_values = _load_config(args.config, args) if args.config else None
        return args.handler(args)
    except Exception as exc:  # diagnostics to stderr, data stream stays clean
        print(f"wiretaplab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
