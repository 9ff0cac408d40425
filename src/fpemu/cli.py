"""Command line interface.

Subcommands:

* ``format-info``: print the derived constants of one or more formats.
* ``round``: round values into a format, showing flags and encoding.
* ``dot``: run the chunked dot product on a vector file and cross-check
  it against the exact rational oracle.
* ``train``: run a training job from a config file and/or overrides.
* ``report``: summarize ``summary.json`` files under a directory.
* ``self-test``: quick end-to-end sanity checks.

Exit codes: 0 success, 1 usage or data error.  ``train`` additionally
maps the run outcome: 0 converged, 2 degraded, 3 diverged.  ``dot``
exits 1 on an implementation/oracle mismatch.

Values on the command line may be written as decimals (``0.5``,
``6.1e-5``), hex floats (``0x1.8p-5``), powers of two (``2^-24``,
``-2^10``), or ``inf``/``-inf``/``nan``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .formats import BINARY32, FpFormat, decode16, encode16
from .instructions import AccumMode, fmac, fmac8_dot, fmacs, mac, macs
from .oracle import dot_oracle, fmac_oracle, round_float
from .rounding import roundfp
from .telemetry import RunSummary
from .training import parse_config_text, resolve_config, train

__all__ = ["main", "parse_value"]


class _CliError(Exception):
    """User-facing error: message on stderr, exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage by default, which would
    # collide with the "degraded" training outcome; remap to 1.
    def error(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        raise SystemExit(self._cli_exit(message))

    def _cli_exit(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def parse_value(text: str) -> float:
    """Parse a numeric literal in the CLI grammar (see module docstring)."""
    t = text.strip()
    if not t:
        raise _CliError("empty value")
    sign = 1.0
    body = t
    if body[0] in "+-":
        if body[0] == "-":
            sign = -1.0
        body = body[1:]
    low = body.lower()
    if low in ("inf", "infinity"):
        return sign * math.inf
    if low == "nan":
        return math.nan
    try:
        if low.startswith("2^"):
            return sign * math.ldexp(1.0, int(low[2:], 10))
        if low.startswith("0x"):
            return sign * float.fromhex(low)
        return sign * float(low)
    except OverflowError:  # beyond binary64, as float() reads 1e400
        return sign * math.inf
    except ValueError as exc:
        raise _CliError(f"cannot parse value {text!r}: {exc}") from None


def _parse_format(spec: str) -> FpFormat:
    try:
        return FpFormat.parse(spec)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _float_str(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    return f"{x!r} ({float(x).hex()})"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_format_info(args: argparse.Namespace) -> int:
    for i, spec in enumerate(args.formats):
        fmt = _parse_format(spec)
        if i:
            print()
        consts = fmt.constants()
        print(f"format {consts.pop('format')}")
        print(f"  denormals           {'enabled' if fmt.denormals else 'flush-to-zero'}")
        labels = {
            "width": "width_bits",
            "bias": "bias",
            "e_min": "e_min",
            "e_max": "e_max",
            "min_denormal": "min_denormal",
            "min_normal": "min_normal",
            "max_finite": "max_finite",
            "overflow_threshold": "overflow_threshold",
        }
        for key in ("width", "bias", "e_min", "e_max"):
            print(f"  {labels[key]:<19} {consts[key]}")
        for key in ("min_denormal", "min_normal", "max_finite", "overflow_threshold"):
            value = consts[key]
            if value is None:
                print(f"  {labels[key]:<19} none")
            else:
                print(f"  {labels[key]:<19} {_float_str(float(value))}")
    return 0


def _flags_str(flags) -> str:
    names = [f.name for f in type(flags) if f in flags]
    return "|".join(names) if names else "none"


def _cmd_round(args: argparse.Namespace) -> int:
    fmt = _parse_format(args.format)
    for text in args.values:
        x = parse_value(text)
        outcome = roundfp(x, fmt)
        value = outcome.value.surrogate
        line = f"{text} -> {_float_str(value)}  flags={_flags_str(outcome.flags)}"
        if fmt.width == 16:
            line += f"  encoding=0x{encode16(value, fmt):04x}"
        print(line)
    return 0


def _read_vector_file(path: Path) -> tuple[list[float], list[float]]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_value(tok) for tok in line.split()])
    if len(rows) != 2:
        raise _CliError(
            f"{path}: expected exactly two data lines (w then x), found {len(rows)}"
        )
    w, x = rows
    if len(w) != len(x):
        raise _CliError(f"{path}: length mismatch: {len(w)} weights vs {len(x)} inputs")
    return w, x


def _cmd_dot(args: argparse.Namespace) -> int:
    fmt = _parse_format(args.format)
    if args.chunk < 1:
        raise _CliError("--chunk must be positive")
    w, x = _read_vector_file(Path(args.file))
    wq = [roundfp(v, fmt).value.surrogate for v in w]
    xq = [roundfp(v, fmt).value.surrogate for v in x]
    got = fmac8_dot(wq, xq, fmt, chunk=args.chunk)
    want = dot_oracle(wq, xq, fmt, chunk=args.chunk)
    match = (got == want) or (math.isnan(got) and math.isnan(want))
    print(f"n={len(wq)} chunk={args.chunk} format={fmt}")
    print(f"fmac8_dot: {_float_str(got)}")
    print(f"oracle:    {_float_str(want)}")
    print("MATCH" if match else "MISMATCH")
    return 0 if match else 1


def _cmd_train(args: argparse.Namespace) -> int:
    entries: dict[str, str] = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read config {args.config}: {exc}") from None
        try:
            entries.update(parse_config_text(text))
        except ValueError as exc:
            raise _CliError(f"{args.config}: {exc}") from None
    if args.task is not None:
        entries["task"] = args.task
    for item in args.set or []:
        if "=" not in item:
            raise _CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        entries[key.strip()] = value.strip()
    if "task" not in entries:
        raise _CliError("no task given; use --task or a config file with a task= line")
    try:
        cfg = resolve_config(entries)
    except ValueError as exc:
        raise _CliError(str(exc)) from None

    # each run gets its own directory so a results tree can hold many runs
    run_dir = Path(args.out) / cfg.run_id() if args.out is not None else None
    try:
        result = train(cfg, out_dir=run_dir)
    except ValueError as exc:  # settings that only the task data can refute
        raise _CliError(str(exc)) from None
    except OSError as exc:
        raise _CliError(f"cannot write artifacts to {run_dir}: {exc}") from None
    print(f"run_id: {cfg.run_id()}")
    print(f"format: {cfg.fmt_name}  mode: {cfg.mode.value}  "
          f"dls: {'on' if cfg.dls else 'off'}")
    print(f"steps: {len(result.losses)}  skipped: {sum(result.skipped)}")
    print(f"final_loss: {result.final_loss!r}")
    print(f"max_denormal_fraction: {result.summary.global_max!r}")
    print(f"outcome: {result.outcome}")
    if run_dir is not None:
        print(f"artifacts: {run_dir}")
    return {"converged": 0, "degraded": 2, "diverged": 3}[result.outcome]


def _cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise _CliError(f"{root} is not a directory")
    paths = sorted(p for p in root.rglob("*summary.json") if p.is_file())
    if not paths:
        raise _CliError(f"no *summary.json files under {root}")
    rows = []
    bad = 0
    for path in paths:
        try:
            summary = RunSummary.from_json(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            bad += 1
            continue
        rows.append(summary)
    rows.sort(key=lambda s: s.run_id)
    header = (
        f"{'run_id':<42} {'format':<10} {'mode':<6} {'dls':<4} "
        f"{'outcome':<10} {'final_loss':<14} {'max_denorm':<10}"
    )
    print(header)
    print("-" * len(header))
    for s in rows:
        loss = "none" if s.final_loss is None else f"{s.final_loss:.6g}"
        print(
            f"{s.run_id:<42} {s.fmt:<10} {s.accum_mode:<6} "
            f"{'on' if s.dls else 'off':<4} {s.outcome or 'none':<10} "
            f"{loss:<14} {s.global_max:.6g}"
        )
    if bad:
        print(f"warning: {bad} summary file(s) unreadable", file=sys.stderr)
        return 1
    return 0


def _cmd_self_test(args: argparse.Namespace) -> int:
    del args
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures += 1

    half = FpFormat.parse("1/5/10/d")
    # agree with IEEE binary16 on every encoding
    words = np.arange(1 << 16, dtype=np.uint16)
    decoded = words.view(np.float16).astype(np.float32)
    from .rounding import roundfp_array

    ours = roundfp_array(decoded, half)
    both_nan = np.isnan(ours) & np.isnan(decoded)
    check(
        "1/5/10/d reproduces IEEE binary16 on all 65536 encodings",
        bool(np.all((ours == decoded) | both_nan)),
    )

    rng = np.random.default_rng(7)
    xs = rng.standard_normal(4096).astype(np.float32) * np.float32(2.0**-10)
    via16 = xs.astype(np.float16).astype(np.float32)
    check(
        "1/5/10/d matches float16 rounding on random small values",
        bool(np.all(roundfp_array(xs, half) == via16)),
    )

    bf = FpFormat.parse("1/6/9/d")
    checks = [
        ("mac keeps a denormal product in 1/5/10/d", mac(0.0, 2.0**-12, 2.0**-12, half) == 2.0**-24),
        ("fmac rounds a denormal sum to even in 1/6/9/d", fmac(0.0, 2.0**-20, 2.0**-20, bf) == 0.0),
        ("fmacs keeps binary32 precision", fmacs(1.0, 2.0**-11, 2.0**-12, half) == 1.0 + 2.0**-23),
        ("macs sums at binary32", macs(1.0, 1.0, 2.0**-14, half) == 1.0 + 2.0**-14),
    ]
    for name, ok in checks:
        check(name, bool(ok))

    ws = [roundfp(v, half).value.surrogate for v in rng.standard_normal(64)]
    xs2 = [roundfp(v, half).value.surrogate for v in rng.standard_normal(64)]
    got = fmac8_dot(ws, xs2, half)
    want = dot_oracle(ws, xs2, half)
    check("fmac8_dot agrees with the exact oracle on a random vector", got == want)

    got_f = fmac(2.0**-24, 1.0, 2.0**-24, half)
    want_f = fmac_oracle(2.0**-24, 1.0, 2.0**-24, half)
    check("fmac agrees with the oracle on a denormal case", got_f == want_f == 2.0**-23)

    check(
        "round_float oracle matches roundfp on a boundary case",
        round_float(6.104e-05, half) == roundfp(6.104e-05, half).value.surrogate,
    )
    check("decode16 round-trips an encoding", decode16(encode16(1.5, half), half) == 1.5)

    print("self-test:", "all ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fpemu", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("format-info", help="print derived constants of formats")
    p.add_argument("formats", nargs="+", metavar="FORMAT")
    p.set_defaults(func=_cmd_format_info)

    p = sub.add_parser("round", help="round values into a format")
    p.add_argument("format", metavar="FORMAT")
    p.add_argument("values", nargs="+", metavar="VALUE")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("dot", help="chunked dot product vs the exact oracle")
    p.add_argument("format", metavar="FORMAT")
    p.add_argument("file", metavar="FILE", help="two data lines: weights then inputs")
    p.add_argument("--chunk", type=int, default=8)
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("train", help="run a training job")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--task", help="task name (overrides the config file)")
    p.add_argument("--out", help="directory for loss.csv, telemetry.csv, summary.json")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a single config entry (repeatable)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("report", help="summarize summary.json files under a directory")
    p.add_argument("dir", metavar="DIR")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("self-test", help="quick embedded sanity checks")
    p.set_defaults(func=_cmd_self_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"fpemu: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse raises SystemExit for --help (0) and, via our error
        # override, for usage problems (1); surface it as a return code
        # so the function stays callable in-process.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main())
