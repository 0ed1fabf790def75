"""Command-line interface.

Complex scalars are written as ``re,im`` pairs on the command line and
as ``[re, im]`` pairs in JSON files.  All results are emitted as
deterministic JSON (17 significant digits, no timestamps), so repeated
runs over identical inputs produce byte-identical outputs.

A command is a function ``(operator, args, cfg) -> (result, exit code)``;
``operator`` is the matrix file loaded as an ``Operator`` (None for
``examples``).  ``main`` does the rest: it loads the config and the
matrix, writes ``dumps(payload(result))`` or the error report to
``--output``, and maps errors to exit codes.  The side files a command
is asked for (CSV, grid metadata, a generated matrix) are written by the
command, before it returns.

Exit codes:
    0  success
    2  usage, parse, or validation error (including domain violations),
       or an unwritable --output (message on stderr)
    3  shift numerically singular (diagnostic JSON on the output channel)
    4  requested growth bound check failed
    5  path search failure (partial path JSON on the output channel)
"""

from __future__ import annotations

import argparse
import sys

from .analysis import GrowthCase, analyze_point
from .config import DEFAULT_CONFIG, RunConfig, load_config
from .errors import NearSingularError, ResgrowError, SearchError
from .growth import (
    default_taylor_steps,
    local_min_probe,
    sample_segment,
    sample_segment_auto,
    taylor_remainder_check,
    verify_growth_bound,
)
from .linalg import Operator, load_matrix, save_matrix
from .pseudo import find_path, grid_metadata, grid_sigma_min
from .serialize import dumps, payload
from .zoo import (
    RANDOM_DENSE_RNG_ID,
    diagonal_normal,
    jordan_block,
    random_dense,
    weighted_shift,
    zigzag_diagonal,
)


def _floats(text: str, what: str, count: int | None = None) -> tuple[float, ...]:
    """A comma-separated list of floats, exactly count of them if given."""
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}") from None
    if count is not None and len(values) != count:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected {count} numbers")
    return values


def _complex_arg(text: str) -> complex:
    return complex(*_floats(text, "re,im", 2))


def _weights_arg(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad weights {text!r} (use complex literals like 2,1 or 1+2j): {exc}"
        ) from exc


def _entries_arg(text: str) -> tuple[complex, ...]:
    return tuple(_complex_arg(chunk) for chunk in text.split(";"))


def _emit(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


# the specimen generators: name -> (help, required arguments as
# (flag, type, help), build).  build(args, cfg) returns the matrix and
# the metadata written between "file" and "n".
_SIZE = ("--n", int, "matrix size")
_GENERATORS = {
    "diag": (
        "diagonal matrix",
        [("--entries", _entries_arg, "re,im;re,im;...")],
        lambda args, cfg: (diagonal_normal(args.entries), {}),
    ),
    "zigzag": (
        "zigzag diagonal family",
        [_SIZE],
        lambda args, cfg: (zigzag_diagonal(args.n), {}),
    ),
    "shift": (
        "circulant weighted shift (via inverse)",
        [("--weights", _weights_arg, "w0,w1,... as Python complex literals, e.g. 2,1 or 1+2j")],
        lambda args, cfg: (weighted_shift(args.weights, cfg), {"weights": args.weights}),
    ),
    "jordan": (
        "Jordan block",
        [_SIZE, ("--lam", _complex_arg, "eigenvalue as re,im")],
        lambda args, cfg: (jordan_block(args.n, args.lam), {}),
    ),
    "random": (
        "seeded dense complex normal matrix",
        [_SIZE, ("--seed", int, "generator seed")],
        lambda args, cfg: (
            random_dense(args.n, args.seed),
            {"seed": args.seed, "rng": RANDOM_DENSE_RNG_ID},
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with tolerance/search overrides")
    common.add_argument(
        "--output", default="-", help="result destination file, or - for stdout (default)"
    )

    parser = argparse.ArgumentParser(
        prog="resgrow",
        description="Resolvent norm growth analysis and certified pseudospectrum paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, point=True):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("matrix", help="matrix JSON file")
        if point:
            p.add_argument("--z", type=_complex_arg, required=True, help="point as re,im")
        p.set_defaults(handler=handler)
        return p

    command("analyze", _cmd_analyze, "full resolvent analysis at a point")

    p = command("growth", _cmd_growth, "sample a growth segment and optionally check the bound")
    p.add_argument("--a0", type=float, help="segment length (default: auto, quarter distance)")
    p.add_argument("--samples", type=int, default=16, help="number of subintervals m (>= 8)")
    p.add_argument("--theta", type=float, help="explicit direction angle (radians)")
    p.add_argument(
        "--expect",
        choices=[c.value for c in GrowthCase],
        help="verify the growth bound for this case; exit 4 on failure",
    )
    p.add_argument("--csv", help="also write the samples as CSV to this file")

    p = command("path", _cmd_path, "certified path from a point to an eigenvalue")
    p.add_argument("--epsilon", type=float, required=True)

    p = command("grid", _cmd_grid, "sigma_min grid as CSV plus metadata JSON", point=False)
    p.add_argument(
        "--bounds",
        type=lambda s: _floats(s, "bounds", 4),
        required=True,
        help="re_min,re_max,im_min,im_max (write --bounds=-1,... for a leading minus)",
    )
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="level used for labeling")
    p.add_argument("--csv", required=True, help="grid CSV destination file")
    p.add_argument("--meta", help="metadata JSON destination (default: <csv>.meta.json)")

    # --config and --output belong to each generator: on the group as well,
    # the generator's defaults would overwrite the values given before it
    p = sub.add_parser("examples", help="generate specimen matrices")
    gen = p.add_subparsers(dest="name", required=True)
    for name, (text, arguments, _) in _GENERATORS.items():
        g = gen.add_parser(name, parents=[common], help=text)
        for flag, kind, arg_help in arguments:
            g.add_argument(flag, type=kind, required=True, help=arg_help)
        g.add_argument("-o", "--out", required=True, help="matrix JSON destination")
        g.set_defaults(handler=_cmd_examples)

    p = command("localmin", _cmd_localmin, "probe a candidate local minimum")
    p.add_argument("--r0", type=float, required=True, help="outer probe radius")
    p.add_argument("--radial", type=int, default=6)
    p.add_argument("--angular", type=int, default=16)

    p = command("taylor", _cmd_taylor, "second-order expansion remainder check")
    p.add_argument("--theta", type=float, help="direction angle (default: analyzed theta0)")
    p.add_argument(
        "--steps", type=lambda s: _floats(s, "steps"), help="comma-separated decreasing step sizes"
    )

    return parser


def _cmd_analyze(a: Operator, args, cfg: RunConfig):
    return analyze_point(a, args.z, cfg), 0


def _cmd_growth(a: Operator, args, cfg: RunConfig):
    point = analyze_point(a, args.z, cfg)
    if args.a0 is not None:
        report = sample_segment(a, point, args.a0, args.samples, args.theta, cfg)
    else:
        report = sample_segment_auto(a, point, args.samples, args.theta, cfg)
    data, code = report.to_dict(), 0
    if args.expect is not None:
        data["bound_check"] = check = verify_growth_bound(report, GrowthCase(args.expect))
        code = 0 if check.passed else 4
    if args.csv:
        _emit(report.to_csv(), args.csv)
    return data, code


def _cmd_path(a: Operator, args, cfg: RunConfig):
    path, certificate = find_path(a, args.epsilon, args.z, cfg)
    return path.to_dict(certificate), 0


def _cmd_grid(a: Operator, args, cfg: RunConfig):
    grid = grid_sigma_min(a, *args.bounds, args.nx, args.ny)
    meta = grid_metadata(grid, args.epsilon)
    _emit(grid.to_csv(), args.csv)
    _emit(dumps(meta), args.meta or args.csv + ".meta.json")
    return meta, 0


def _cmd_examples(_, args, cfg: RunConfig):
    matrix, extras = _GENERATORS[args.name][2](args, cfg)
    save_matrix(args.out, matrix)
    return {"name": args.name, "file": args.out, **extras, "n": matrix.shape[0]}, 0


def _cmd_localmin(a: Operator, args, cfg: RunConfig):
    probe = local_min_probe(a, args.z, args.r0, args.radial, args.angular, cfg)
    return {"z": args.z, "r0": args.r0, **probe.to_dict()}, 0


def _cmd_taylor(a: Operator, args, cfg: RunConfig):
    point = analyze_point(a, args.z, cfg)
    theta = point.theta0 if args.theta is None else args.theta
    steps = default_taylor_steps() if args.steps is None else args.steps
    check = taylor_remainder_check(a, args.z, point.psi, theta, steps, cfg)
    return {"z": args.z, "theta": float(theta), **check.to_dict()}, 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:  # the outer handler also catches an unwritable --output
        try:
            cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
            a = Operator(load_matrix(args.matrix)) if "matrix" in args else None
            result, code = args.handler(a, args, cfg)
        except NearSingularError as exc:
            result = {"error": "near_singular", "message": str(exc), "sigma_min": exc.sigma_min}
            code = 3
        except SearchError as exc:
            result = {
                "error": "search_failure",
                "message": str(exc),
                "reason": exc.reason,
                "suspected_local_min": exc.suspected_local_min,
                "vertices": exc.vertices,
            }
            code = 5
        _emit(dumps(payload(result)), args.output)
        return code
    except (ValueError, OSError, ResgrowError) as exc:
        print(f"resgrow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
