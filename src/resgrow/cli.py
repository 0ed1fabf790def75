"""Command-line interface.

Complex scalars are written as ``re,im`` pairs on the command line and
as ``[re, im]`` pairs in JSON files.  All results are emitted as
deterministic JSON (17 significant digits, no timestamps), so repeated
runs over identical inputs produce byte-identical outputs.

Exit codes:
    0  success
    2  usage, parse, or validation error (including domain violations)
    3  shift numerically singular (diagnostic JSON on the output channel)
    4  requested growth bound check failed
    5  path search failure (partial path JSON on the output channel)
"""

from __future__ import annotations

import argparse
import sys

from .analysis import GrowthCase, analyze_point
from .config import DEFAULT_CONFIG, RunConfig, load_config
from .errors import DomainError, NearSingularError, ResgrowError, SearchError
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
    circulant_weighted_shift_inverse,
    diagonal_normal,
    jordan_block,
    operator_from_inverse,
    random_dense,
    zigzag_diagonal,
)


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im but got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex scalar {text!r}: {exc}") from exc


def _bounds_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected re_min,re_max,im_min,im_max but got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad bounds {text!r}: {exc}") from exc


def _steps_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}: {exc}") from exc


def _weights_arg(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad weights {text!r} (use complex literals like 2,1 or 1+2j): {exc}"
        ) from exc


def _entries_arg(text: str) -> tuple[complex, ...]:
    entries = []
    for chunk in text.split(";"):
        entries.append(_complex_arg(chunk))
    return tuple(entries)


def _emit(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


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

    p = sub.add_parser("analyze", parents=[common], help="full resolvent analysis at a point")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--z", type=_complex_arg, required=True, help="point as re,im")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "growth", parents=[common], help="sample a growth segment and optionally check the bound"
    )
    p.add_argument("matrix")
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--a0", type=float, help="segment length (default: auto, quarter distance)")
    p.add_argument("--samples", type=int, default=16, help="number of subintervals m (>= 8)")
    p.add_argument("--theta", type=float, help="explicit direction angle (radians)")
    p.add_argument(
        "--expect",
        choices=[c.value for c in GrowthCase],
        help="verify the growth bound for this case; exit 4 on failure",
    )
    p.add_argument("--csv", help="also write the samples as CSV to this file")
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser(
        "path", parents=[common], help="certified path from a point to an eigenvalue"
    )
    p.add_argument("matrix")
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(handler=_cmd_path)

    p = sub.add_parser(
        "grid", parents=[common], help="sigma_min grid as CSV plus metadata JSON"
    )
    p.add_argument("matrix")
    p.add_argument(
        "--bounds",
        type=_bounds_arg,
        required=True,
        help="re_min,re_max,im_min,im_max (write --bounds=-1,... for a leading minus)",
    )
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="level used for labeling")
    p.add_argument("--csv", required=True, help="grid CSV destination file")
    p.add_argument("--meta", help="metadata JSON destination (default: <csv>.meta.json)")
    p.set_defaults(handler=_cmd_grid)

    # --config and --output belong to each generator: on the group as well,
    # the generator's defaults would overwrite the values given before it
    p = sub.add_parser("examples", help="generate specimen matrices")
    gen = p.add_subparsers(dest="name", required=True)

    g = gen.add_parser("diag", parents=[common], help="diagonal matrix")
    g.add_argument("--entries", type=_entries_arg, required=True, help="re,im;re,im;...")
    g.add_argument("-o", "--out", required=True, help="matrix JSON destination")
    g.set_defaults(handler=_cmd_examples, name="diag")

    g = gen.add_parser("zigzag", parents=[common], help="zigzag diagonal family")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(handler=_cmd_examples, name="zigzag")

    g = gen.add_parser("shift", parents=[common], help="circulant weighted shift (via inverse)")
    g.add_argument("--weights", type=_weights_arg, required=True, help="w0,w1,...")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(handler=_cmd_examples, name="shift")

    g = gen.add_parser("jordan", parents=[common], help="Jordan block")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--lam", type=_complex_arg, required=True, help="eigenvalue as re,im")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(handler=_cmd_examples, name="jordan")

    g = gen.add_parser("random", parents=[common], help="seeded dense complex normal matrix")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(handler=_cmd_examples, name="random")

    p = sub.add_parser("localmin", parents=[common], help="probe a candidate local minimum")
    p.add_argument("matrix")
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--r0", type=float, required=True, help="outer probe radius")
    p.add_argument("--radial", type=int, default=6)
    p.add_argument("--angular", type=int, default=16)
    p.set_defaults(handler=_cmd_localmin)

    p = sub.add_parser(
        "taylor", parents=[common], help="second-order expansion remainder check"
    )
    p.add_argument("matrix")
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--theta", type=float, help="direction angle (default: analyzed theta0)")
    p.add_argument("--steps", type=_steps_arg, help="comma-separated decreasing step sizes")
    p.set_defaults(handler=_cmd_taylor)

    return parser


def _cmd_analyze(args, cfg: RunConfig) -> int:
    point = analyze_point(load_matrix(args.matrix), args.z, cfg)
    _emit(dumps(point.to_dict()), args.output)
    return 0


def _cmd_growth(args, cfg: RunConfig) -> int:
    a = Operator(load_matrix(args.matrix))
    point = analyze_point(a, args.z, cfg)
    if args.a0 is not None:
        report = sample_segment(a, point, args.a0, args.samples, args.theta, cfg)
    else:
        report = sample_segment_auto(a, point, args.samples, args.theta, cfg)
    data = report.to_dict()
    code = 0
    if args.expect is not None:
        check = verify_growth_bound(report, GrowthCase(args.expect), cfg)
        data["bound_check"] = check.to_dict()
        if not check.passed:
            code = 4
    if args.csv:
        _emit(report.to_csv(), args.csv)
    _emit(dumps(data), args.output)
    return code


def _cmd_path(args, cfg: RunConfig) -> int:
    path, certificate = find_path(load_matrix(args.matrix), args.epsilon, args.z, cfg)
    _emit(dumps(path.to_dict(certificate)), args.output)
    return 0


def _cmd_grid(args, cfg: RunConfig) -> int:
    re_min, re_max, im_min, im_max = args.bounds
    grid = grid_sigma_min(
        load_matrix(args.matrix), re_min, re_max, im_min, im_max, args.nx, args.ny, cfg
    )
    meta = grid_metadata(grid, args.epsilon)
    _emit(grid.to_csv(), args.csv)
    meta_target = args.meta if args.meta else args.csv + ".meta.json"
    _emit(dumps(meta), meta_target)
    _emit(dumps(meta), args.output)
    return 0


def _cmd_examples(args, cfg: RunConfig) -> int:
    meta: dict = {"name": args.name, "file": args.out}
    if args.name == "diag":
        m = diagonal_normal(args.entries)
    elif args.name == "zigzag":
        m = zigzag_diagonal(args.n)
    elif args.name == "shift":
        m = operator_from_inverse(circulant_weighted_shift_inverse(args.weights), cfg)
        meta["weights"] = payload(args.weights)
    elif args.name == "jordan":
        m = jordan_block(args.n, args.lam)
    elif args.name == "random":
        m = random_dense(args.n, args.seed)
        meta["seed"] = args.seed
        meta["rng"] = RANDOM_DENSE_RNG_ID
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown example {args.name!r}")
    save_matrix(args.out, m)
    meta["n"] = int(m.shape[0])
    _emit(dumps(meta), args.output)
    return 0


def _cmd_localmin(args, cfg: RunConfig) -> int:
    probe = local_min_probe(
        load_matrix(args.matrix), args.z, args.r0, args.radial, args.angular, cfg
    )
    _emit(dumps(payload({"z": args.z, "r0": args.r0, **probe.to_dict()})), args.output)
    return 0


def _cmd_taylor(args, cfg: RunConfig) -> int:
    a = Operator(load_matrix(args.matrix))
    point = analyze_point(a, args.z, cfg)
    theta = args.theta if args.theta is not None else point.theta0
    if theta is None:
        raise DomainError(
            "the point is a local minimum (no theta0); supply --theta explicitly"
        )
    steps = args.steps if args.steps is not None else default_taylor_steps()
    check = taylor_remainder_check(a, args.z, point.psi, theta, steps, cfg)
    _emit(dumps(payload({"z": args.z, "theta": float(theta), **check.to_dict()})), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        return args.handler(args, cfg)
    except NearSingularError as exc:
        _emit(
            dumps({"error": "near_singular", "message": str(exc), "sigma_min": exc.sigma_min}),
            args.output,
        )
        return 3
    except SearchError as exc:
        report = {
            "error": "search_failure",
            "message": str(exc),
            "reason": exc.reason,
            "suspected_local_min": exc.suspected_local_min,
            "vertices": exc.vertices,
        }
        _emit(dumps(payload(report)), args.output)
        return 5
    except (ValueError, OSError, ResgrowError) as exc:
        print(f"resgrow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
