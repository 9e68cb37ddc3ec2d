"""Command-line interface.

Subcommands::

    madkit mad          corrected MAD of numbers from a file or stdin
    madkit factors      Monte-Carlo estimation of correction factors
    madkit efficiency   variance ratios of the three MAD estimators
    madkit sensitivity  dispersion of MAD estimates across distributions
    madkit fit          least-squares fit of the large-n factor equation
    madkit tables       dump a built-in factor table

Exit codes: 0 success, 2 usage or input error, 3 internal invariant
failure.  Simulation output is CSV preceded by a provenance comment line;
with a fixed ``--seed`` the CSV body is byte-identical across runs and
thread counts.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

import numpy as np

import madkit
from madkit.distributions import DEFAULT_SENSITIVITY_SET, parse_spec
from madkit.errors import InternalCheckError, MadkitError
from madkit.factor_tables import TABLES
from madkit.mad import MODEL_CHOICES, factor_table, mad_corrected
from madkit.quantiles import THD_SQRT, parse_estimator
from madkit.simulate import (
    _FIT_RANGE,
    _FLOAT_FMT,
    _STREAMS,
    SimulationConfig,
    efficiency,
    estimate_factors,
    fit_embedded,
    sensitivity,
)


def _typed(parse):
    """``parse`` as an argparse type: its ``MadkitError`` text becomes the usage error."""

    @functools.wraps(parse)
    def convert(text: str):
        try:
            return parse(text)
        except MadkitError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


@_typed
def _estimator_list(text: str):
    return [parse_estimator(part) for part in text.split(",") if part.strip()]


def _split_top_level(text: str) -> list[str]:
    # Split on commas not nested in parentheses: distribution specs carry
    # their own commas, e.g. pareto(loc=1,shape=0.5),uniform(a=0,b=1).
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if p]


@_typed
def _dist_list(text: str):
    return [parse_spec(part) for part in _split_top_level(text)]


def _range(text: str) -> tuple[float, float]:
    low, sep, high = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LOW..HIGH, got {text!r}")
    try:
        return float(low), float(high)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric bounds in {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _default_threads() -> int:
    env = os.environ.get("MADKIT_THREADS", "").strip()
    if not env:
        return 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError:
        raise MadkitError(f"MADKIT_THREADS must be a positive integer, got {env!r}") from None


def _parse_lines(text: str) -> list[float]:
    # Token by token, so a failure names its line; the reference for the
    # one-pass parse in _read_numbers, which falls back to it on any failure.
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise MadkitError(f"line {lineno}: could not parse {token!r} as a number")
            if value != value or value in (float("inf"), float("-inf")):
                raise MadkitError(f"line {lineno}: non-finite value {token!r} rejected")
            values.append(value)
    return values


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", without a leading BOM.

    The bytes are decoded here, not by a text stream, so a decoding error
    can name the byte offset in the whole input, BOM included.
    """
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:  # a text stream with no bytes beneath it
            return sys.stdin.read().removeprefix("\ufeff")
        data, name = stream.read(), "<stdin>"
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        name = path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MadkitError(
            f"{name}: byte {exc.start}: 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from None
    return text.removeprefix("\ufeff")


def _read_numbers(path: str) -> np.ndarray:
    """Numbers separated by whitespace or commas, from a file or stdin ("-").

    One pass over the whole text parses every token with ``float`` into a
    float64 array and checks finiteness vectorised; no per-line list is
    built and the token list is dropped once parsed.  Only when a token
    fails to parse or is NaN/infinite is the text re-read line by line
    (``_parse_lines``), so the error names the first bad token's line
    exactly as a line-by-line parse would.
    """
    text = _read_text(path)
    tokens = text.replace(",", " ").split()
    try:
        values = np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError:
        values = None
    del tokens
    if values is None or not np.isfinite(values).all():
        values = np.asarray(_parse_lines(text), dtype=np.float64)
    return values


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temp file beside the target, which then replaces the
    target in one rename; on any error the temp file is removed and an
    existing target keeps its content.  A symlink is written through, and a
    path that exists but is not a regular file (``/dev/stdout``) is written
    directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".madkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given, not 0600
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_report(body: str, out_path, provenance: str) -> None:
    text = provenance + body
    if out_path:
        _write_file(out_path, text)
    else:
        sys.stdout.write(text)


def _provenance(config: SimulationConfig) -> str:
    # The fields that fix the CSV body; ``streams`` names the stream-key
    # scheme, and numpy's version is recorded because the Philox draws and
    # their transforms come from it.
    dists = ""
    if config.distributions:
        dists = f" dists={','.join(map(str, config.distributions))}"
    return (
        f"# seed={config.master_seed} reps={config.repetitions} "
        f"version={madkit.__version__} chunk_size={config.chunk_size} streams={_STREAMS} "
        f"n={','.join(map(str, config.sample_sizes))} "
        f"estimators={','.join(est.label for est in config.estimators)}"
        f"{dists} numpy={np.__version__}\n"
    )


def _add_sim_flags(parser, default_reps: int, estimators: str = "") -> None:
    """The flags every study takes; ``estimators``, if given, is the help of ``--estimators``."""
    parser.add_argument("--n", type=_int_list, required=True, metavar="LIST",
                        help="comma-separated sample sizes, e.g. 2,3,5,10")
    parser.add_argument("--reps", type=int, default=default_reps,
                        help=f"repetitions per cell (default {default_reps})")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed in [0, 2**64) (default 0)")
    if estimators:
        parser.add_argument("--estimators", type=_estimator_list, default=None, metavar="LIST",
                            help=estimators)
    parser.add_argument("--chunk-size", type=int, default=SimulationConfig.chunk_size,
                        help="repetitions per work chunk (default %(default)s)")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads; results do not depend on this "
                             "(default: MADKIT_THREADS or 1)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write CSV to PATH instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main()`` call of the process.

    Parsing leaves the parser as it was, so every later call reuses it;
    defaults are immutable, so no parse sees another's values.
    """
    parser = argparse.ArgumentParser(
        prog="madkit",
        description="Bias-corrected median absolute deviation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"madkit {madkit.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mad = sub.add_parser("mad", help="corrected MAD of input numbers")
    p_mad.add_argument("input", nargs="?", default="-",
                       help="input file of numbers, or - for stdin (default)")
    p_mad.add_argument("--estimator", type=_typed(parse_estimator), default=THD_SQRT,
                       help="sm, hd, thd-sqrt, or thd(W) (default thd-sqrt); thd(W) needs a "
                            "width-free --model: the default has no factors for it")
    p_mad.add_argument("--model", choices=sorted(MODEL_CHOICES), default="default",
                       help="correction-factor model (default: default)")
    p_mad.add_argument("--csv", action="store_true", help="emit CSV instead of the key/value form")

    p_factors = sub.add_parser("factors", help="Monte-Carlo correction factors")
    _add_sim_flags(p_factors, default_reps=1_000_000,
                   estimators="sm, hd, thd-sqrt or thd(W), each at most once "
                              "(default: sm,hd,thd-sqrt)")

    p_eff = sub.add_parser("efficiency", help="relative efficiency vs the sm baseline")
    _add_sim_flags(p_eff, default_reps=10_000)

    p_sens = sub.add_parser("sensitivity", help="dispersion of MAD estimates per distribution")
    _add_sim_flags(p_sens, default_reps=1_000,
                   estimators="sm, hd or thd-sqrt, each at most once (default: sm,hd,"
                              "thd-sqrt); thd(W) has no factors past n = 2: widths are "
                              "for factors")
    p_sens.add_argument("--dist", type=_dist_list, default=DEFAULT_SENSITIVITY_SET,
                        metavar="SPECS",
                        help="comma-separated distribution specs, e.g. "
                             "'cauchy(x0=0,gamma=1),uniform(a=0,b=1)' "
                             "(default: the built-in 20-distribution set)")

    p_fit = sub.add_parser("fit", help="fit the large-n prediction equation to a table")
    p_fit.add_argument("--estimator", choices=tuple(TABLES), default="sm")
    p_fit.add_argument("--range", type=_range, default=_FIT_RANGE, metavar="LOW..HIGH",
                       help="fit on tabulated sizes with LOW < n <= HIGH "
                            "(default {}..{})".format(*_FIT_RANGE))
    p_fit.add_argument("--out", default=None, metavar="PATH")

    p_tables = sub.add_parser("tables", help="dump a built-in factor table as CSV")
    p_tables.add_argument("--estimator", choices=tuple(TABLES), default="sm")
    p_tables.add_argument("--out", default=None, metavar="PATH")

    return parser


def _cmd_mad(args) -> int:
    values = _read_numbers(args.input)
    if len(values) < 2:
        raise MadkitError(f"need at least 2 numbers, got {len(values)}")
    result = mad_corrected(values, args.estimator, MODEL_CHOICES[args.model])
    if args.csv:
        sys.stdout.write("n,estimator,mad0,factor,mad\n")
        sys.stdout.write(
            f"{result.n},{result.estimator.label},{_FLOAT_FMT % result.uncorrected},"
            f"{_FLOAT_FMT % result.factor},{_FLOAT_FMT % result.corrected}\n"
        )
    else:
        sys.stdout.write(f"n          {result.n}\n")
        sys.stdout.write(f"estimator  {result.estimator.label}\n")
        sys.stdout.write(f"mad0       {_FLOAT_FMT % result.uncorrected}\n")
        sys.stdout.write(f"factor     {_FLOAT_FMT % result.factor}\n")
        sys.stdout.write(f"mad        {_FLOAT_FMT % result.corrected}\n")
        sys.stdout.write(f"factor_source {result.factor_source}\n")
    return 0


def _config_from(args) -> SimulationConfig:
    kwargs = dict(
        sample_sizes=tuple(args.n),
        repetitions=args.reps,
        master_seed=args.seed,
        chunk_size=args.chunk_size,
        distributions=tuple(getattr(args, "dist", ())),
    )
    if getattr(args, "estimators", None) is not None:
        kwargs["estimators"] = tuple(args.estimators)
    return SimulationConfig(**kwargs)


def _cmd_study(args, study) -> int:
    config = _config_from(args)
    threads = args.threads if args.threads is not None else _default_threads()
    report = study(config, threads=threads)
    _write_report(report.to_csv(), args.out, _provenance(config))
    return 0


def _cmd_fit(args) -> int:
    result = fit_embedded(args.estimator, args.range)
    _write_report(result.to_csv(), args.out, f"# version={madkit.__version__}\n")
    return 0


def _cmd_tables(args) -> int:
    table = factor_table(args.estimator)
    lines = ["n,c_n"]
    lines += [f"{n},{table[n]:.4f}" for n in sorted(table)]
    _write_report("\n".join(lines) + "\n", args.out, f"# version={madkit.__version__}\n")
    return 0


# The study is looked up when the command runs, so a wrapper set on this
# module's attribute (a tracer, a test) is the one called.
_COMMANDS = {
    "mad": _cmd_mad,
    "factors": lambda args: _cmd_study(args, estimate_factors),
    "efficiency": lambda args: _cmd_study(args, efficiency),
    "sensitivity": lambda args: _cmd_study(args, sensitivity),
    "fit": _cmd_fit,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InternalCheckError as exc:
        print(f"madkit: internal check failed: {exc}", file=sys.stderr)
        return 3
    except MadkitError as exc:
        print(f"madkit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"madkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
