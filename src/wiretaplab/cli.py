"""Command-line front end: channel analysis, equivocation runs, LPN pipeline.

Every stochastic subcommand takes an explicit --seed (hex, at least 16 bytes);
there is no ambient randomness, so a command line reproduces its output
byte for byte.  Data goes to stdout or the --out file, diagnostics to stderr,
exit status 0 only on success.  Each option is declared once on the parser,
with its type, choices and default.  A --config file of key=value lines, keyed
by the long option name, sets the same options: each value passes the option's
type and choices and becomes the subcommand's default, so a flag beats the file
and the file beats the default.  A bad flag value exits 2 through argparse; a
bad value or unknown key in the file exits 1 with the key and the file named.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

from .channels import AwgnSplitChannel, Bsc, _check_crossover, crossover_probabilities
from .coset import (
    EQUIVOCATION_CSV_HEADER,
    code_from_text,
    exact_equivocation,
    example1_code,
    monte_carlo_equivocation,
)
from .infometrics import binary_entropy, loss_curve, quantizer_sweep, secrecy_capacity_bsc
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
from .gf2 import BitVector, _packed_from_hex
from .prng import prng_stream

LOSS_CURVE_HEADER = "sigma_w_sq,p,p_w,i_xw,loss"
CAPACITY_HEADER = "p,p_w,h_p,h_p_w,c_s"
SWEEP_HEADER = "levels,i_x_zhat,loss"


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: text as it is, numbers to 17 digits."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _parse_seed(text: str):
    """The stream of a --seed value; an error names the option."""
    try:
        return prng_stream(bytes.fromhex(text))
    except ValueError as exc:
        raise ValueError(f"--seed {text!r}: {exc}") from exc


def _number(text: str, cast):
    """cast(text); a failure says why, and argparse prints it after the option."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None


def _parse_grid(spec: str) -> list:
    """Either 'lo:hi:count' (inclusive linear grid) or a comma list."""
    if ":" in spec:
        fields = spec.split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {spec!r}")
        lo, hi, count = _number(fields[0], float), _number(fields[1], float), _number(fields[2], int)
        if count < 1:
            raise argparse.ArgumentTypeError("grid count must be >= 1")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]
    return [_number(v, float) for v in spec.split(",")]


def _parse_levels(spec: str) -> list:
    return [_number(v, int) for v in spec.split(",")]


def _load_config(path: str, sp: argparse.ArgumentParser) -> None:
    """Make key=value lines the defaults of the subcommand's value options.

    Each value is cast and checked here: argparse checks no choices on a
    default, and a string default that fails its type would exit 2 without
    naming the file.
    """
    options = {
        action.option_strings[0][2:]: action
        for action in sp._actions
        if action.option_strings and action.nargs != 0 and action.dest != "config"
    }
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, raw = key.strip(), raw.strip()
            action = options.get(key)
            if action is None:
                raise ValueError(
                    f"unknown config key {key!r} in {path} for {sp.prog} "
                    f"(known: {', '.join(sorted(options))})"
                )
            try:
                value = action.type(raw) if action.type else raw
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"choose from {', '.join(action.choices)}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(
                    f"config key {key!r} in {path}: bad value {raw!r} ({exc})"
                ) from exc
            defaults[action.dest] = value
    sp.set_defaults(**defaults)


def _required(args, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ValueError(f"missing required option --{name}")
    return value


def _read(path: str, parse):
    """Parse a file's text; a parse error names the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_capacity(args) -> str:
    p, p_w = args.override_p, args.override_p_w
    for flag, value in (("--override-p", p), ("--override-p-w", p_w)):
        if value is not None:
            _check_crossover(flag, value)
    if p is None or p_w is None:
        if args.sigma_m_sq is None or args.sigma_w_sq is None:
            raise ValueError(
                "need --sigma-m-sq and --sigma-w-sq (or both --override-p "
                "and --override-p-w)"
            )
        ch_p, ch_p_w = crossover_probabilities(AwgnSplitChannel(args.sigma_m_sq, args.sigma_w_sq))
        p = ch_p if p is None else p
        p_w = ch_p_w if p_w is None else p_w
    c_s = secrecy_capacity_bsc(p, p_w)
    return _csv(CAPACITY_HEADER, [(p, p_w, binary_entropy(p), binary_entropy(p_w), c_s)])


def _cmd_loss_curve(args) -> str:
    points = loss_curve(_required(args, "sigma-m-sq"), _required(args, "grid"))
    return _csv(LOSS_CURVE_HEADER, map(astuple, points))


def _cmd_equivocation(args) -> str:
    p_w = _required(args, "p-w")
    _check_crossover("--p-w", p_w)
    if args.example1 and args.code_file is not None:
        raise ValueError("--example1 and --code-file each name a code; give one")
    if args.example1:
        code = example1_code()
    elif args.code_file is not None:
        code = _read(args.code_file, code_from_text)
    else:
        raise ValueError("need --example1 or --code-file")
    if args.mode == "exact":
        report = exact_equivocation(code, Bsc(p_w))
    else:
        for flag, value in (("--samples", args.samples), ("--workers", args.workers)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        seed = _parse_seed(_required(args, "seed"))
        report = monte_carlo_equivocation(
            code, Bsc(p_w), args.samples, seed, workers=args.workers
        )
    return _csv(EQUIVOCATION_CSV_HEADER, [astuple(report)])


def _cmd_quantizer_sweep(args) -> str:
    sigma_m_sq = _required(args, "sigma-m-sq")
    sigma_w_sq = _required(args, "sigma-w-sq")
    rows = quantizer_sweep(sigma_m_sq, sigma_w_sq, _required(args, "levels"))
    inf = loss_curve(sigma_m_sq, [sigma_w_sq])[0]
    return _csv(SWEEP_HEADER, rows + [("inf", inf.i_xw, inf.loss)])


def _cmd_lpn(args) -> str:
    if args.lpn_action == "keygen":
        spec = _required(args, "params")
        try:
            params = LpnParams.from_text(spec)
        except ValueError as exc:
            raise ValueError(f"--params {spec!r}: {exc}") from exc
        return key_to_text(keygen(_parse_seed(_required(args, "seed")), params), params)
    key, params = _read(_required(args, "key"), key_from_text)
    if args.lpn_action == "encrypt":
        seed = _required(args, "seed")
        text = _required(args, "message")
        try:
            # A file line's rule: outer whitespace goes, whitespace inside is refused.
            bits = _packed_from_hex(text, text.strip(), params.l)
        except ValueError as exc:
            raise ValueError(f"--message {exc}") from None
        ct = encrypt(key, params, BitVector(params.l, bits), _parse_seed(seed))
        return ciphertext_to_text(ct)
    ct = _read(_required(args, "ct"), ciphertext_from_text)
    plain = decrypt(key, params, ct)
    nbytes = (params.l + 7) // 8
    return plain.bits.to_bytes(nbytes, "little").hex() + "\n"


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
    sp.add_argument("--grid", type=_parse_grid, help="lo:hi:count or comma list of variances")
    add_common(sp)
    sp.set_defaults(handler=_cmd_loss_curve)

    sp = sub.add_parser("equivocation", help="exact or Monte Carlo equivocation of a coset code")
    sp.add_argument("--example1", action="store_true", help="use the built-in length-2 code")
    sp.add_argument("--code-file", help="code file (header + hex matrix)")
    sp.add_argument("--p-w", type=float, help="wiretap crossover probability")
    sp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="split the samples into this many per-worker substreams of the seed, "
        "a reproducible sample layout; all run in this process (default: %(default)s)",
    )
    sp.add_argument("--seed", help="hex seed (required for mc mode)")
    add_common(sp)
    sp.set_defaults(handler=_cmd_equivocation)

    sp = sub.add_parser("quantizer-sweep", help="eavesdropper information and loss per A/D level count")
    sp.add_argument("--sigma-m-sq", type=float)
    sp.add_argument("--sigma-w-sq", type=float)
    sp.add_argument(
        "--levels", type=_parse_levels, help="comma list of level counts (each >= 2)"
    )
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
        if args.config:
            subparsers = next(a for a in parser._actions if a.dest == "command")
            _load_config(args.config, subparsers.choices[args.command])
            args = parser.parse_args(argv)
        text = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return 0
    except Exception as exc:  # diagnostics to stderr, data stream stays clean
        print(f"wiretaplab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
