"""Command-line surface.

One subcommand per analysis: simulate, r0, stability, feasibility,
bifurcation, sensitivity, mixed, scan-participation.  Reports print to
standard output unless --out redirects them; CSV/SVG side files go where
--csv/--svg point.  Each handler returns its report lines and main alone
writes them, last: a command that fails prints no report.

Exit codes: 0 success, 2 validation error (including an unwritable
output path), 3 numerical error, 4 config parse error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from .config import _SPLIT_KEYS, load_config
from .core import ModelKind, Params, _layout, validate_params
from .errors import ConfigError, NumericError, ValidationError
from .output import csv_pieces, svg_pieces
from .reproduction import stability
from .scenarios import (
    covid_mitigation_presets, participation_scan, run_mixed, run_scenario,
)

# feasibility and sensitivity are imported by the handlers that use them,
# so a simulate or mixed process never compiles or loads them.

_DEFAULT_PLOT_OBSERVABLES = ("S1", "S2", "I", "R")

# Largest --steps (grid size) that bifurcation and scan-participation
# accept.  Each scan point is one 510-step MB run, about 3-4 ms of one
# CPU, and the scan spreads the points over the usable CPUs; so the cap
# bounds a scan near 40 s even on one CPU, and a grid list near 10^4
# floats.
MAX_GRID_STEPS = 10_000


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces to path one at a time (a str would be written one
    character at a time, so pass a one-element list).

    The first piece is taken before the file is opened, so a generator
    that rejects its document before its first piece leaves no file.
    """
    pieces = iter(pieces)
    first = next(pieces, "")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc


def _params_from_flags(args: argparse.Namespace) -> tuple[ModelKind, Params]:
    """Parameters for the analysis subcommands that take rates as flags.

    The reported quantities (R0, B_rho, DFE, sensitivity indices) do not
    involve lambda or gamma, so inert values stand in for them; this keeps
    the full ordering/range validation in one place.
    """
    model = ModelKind(args.model)
    keys = _SPLIT_KEYS[model]
    given = tuple(
        key for split in _SPLIT_KEYS.values() for key in split
        if getattr(args, key) is not None
    )
    if given != keys:
        raise ValidationError(
            f"--model {args.model} takes the class-split flag(s) "
            f"{' '.join('--' + key for key in keys)}, got "
            f"{' '.join('--' + key for key in given) or 'none'}"
        )
    raw: dict[str, object] = {
        "beta1": args.beta1,
        "beta2": args.beta2,
        "kappa": args.kappa,
        "lambda": 1.0,
        "gamma": 0.0,
        "N": args.N,
    }
    raw.update((key, getattr(args, key)) for key in keys)
    return model, validate_params(raw, model, allow_beta_gt_one=args.allow_beta_gt_one)


def _cmd_run(args: argparse.Namespace) -> list[str]:
    cfg = load_config(args.config, allow_beta_gt_one=args.allow_beta_gt_one)
    traj, s = (run_mixed if args.command == "mixed" else run_scenario)(cfg)
    if args.csv:
        _write(args.csv, csv_pieces(traj))
    if args.svg:
        observables = cfg.outputs or _DEFAULT_PLOT_OBSERVABLES
        _write(args.svg, svg_pieces(traj, observables))
    lines = [
        f"model = {traj.model.value}",
        f"records = {len(traj)}",
        f"t = {_fmt(traj.times[0])} .. {_fmt(traj.times[-1])}",
        f"R0 = {_fmt(s.r0)}",
        f"peak I = {_fmt(s.peak_I[1])} at t = {_fmt(s.peak_I[0])}",
        f"peak Is = {_fmt(s.peak_Is[1])} at t = {_fmt(s.peak_Is[0])}",
        f"final R = {_fmt(s.final_R)}",
    ]
    if traj.switch_record is not None:
        lines.insert(3, f"switch at t = {_fmt(traj.switch_record.t_switch)}")
    return lines


def _cmd_r0(args: argparse.Namespace) -> list[str]:
    return _cmd_stability(args)[:4]


def _cmd_stability(args: argparse.Namespace) -> list[str]:
    model, p = _params_from_flags(args)
    report = stability(model, p)
    dfe = ", ".join(
        f"{name} = {_fmt(value)}"
        for name, value in zip(type(report.dfe)._fields, report.dfe)
    )
    return [
        f"model = {model.value}",
        f"rho = {_fmt(p.rho)}",
        f"B_rho = {_fmt(report.b_rho)}",
        f"R0 = {_fmt(report.r0)}",
        f"verdict = {report.verdict.value}",
        f"DFE: {dfe}",
    ]


def _cmd_feasibility(args: argparse.Namespace) -> list[str]:
    from .feasibility import classify_feasible_set

    model = ModelKind(args.model)
    report = classify_feasible_set(args.rho, args.kappa, model)
    vertices = ", ".join(
        f"({_fmt(b1)}, {_fmt(b2)})" for b1, b2 in report.vertices
    )
    return [
        f"model = {model.value}",
        f"rho = {_fmt(report.rho)}",
        f"kappa = {_fmt(report.kappa)}",
        f"type = {report.type_label.value}",
        f"vertices: {vertices}",
    ]


def _grid(steps: int, upper: float = 1.0) -> list[float]:
    """Evenly spaced interior grid of (0, upper); endpoints are excluded."""
    if steps > MAX_GRID_STEPS:
        raise ValidationError(
            f"--steps must be at most {MAX_GRID_STEPS}, got {steps}"
        )
    return [upper * i / (steps + 1) for i in range(1, steps + 1)]


def _cmd_bifurcation(args: argparse.Namespace) -> list[str]:
    from .feasibility import bifurcation_scan

    model = ModelKind(args.model)
    if args.steps < 2:
        raise ValidationError(f"--steps must be at least 2, got {args.steps}")
    upper = _layout(model).rho_max
    grid = _grid(args.steps, upper)
    scan = bifurcation_scan(model, args.kappa, grid)
    lines = [
        f"model = {model.value}",
        f"kappa = {_fmt(args.kappa)}",
        f"grid = {len(grid)} points in (0, {upper:g})",
    ]
    if scan.breakpoints:
        for lo, hi in scan.breakpoints:
            lines.append(f"breakpoint between rho = {_fmt(lo)} and rho = {_fmt(hi)}")
    else:
        lines.append("no breakpoint")
    if args.csv:
        rows = ["rho,type"]
        rows.extend(
            f"{_fmt(r)},{label.value}" for r, label in zip(scan.grid, scan.labels)
        )
        _write(args.csv, ["\n".join(rows) + "\n"])
    return lines


def _cmd_sensitivity(args: argparse.Namespace) -> list[str]:
    from .sensitivity import finite_diff_check, ordering_case, sensitivity_indices

    model, p = _params_from_flags(args)
    indices = sensitivity_indices(model, p)
    case = ordering_case(model, p)
    fd_err = finite_diff_check(model, p, args.fd_step)
    lines = [f"model = {model.value}", "indices:"]
    for name, value in indices.as_dict().items():
        lines.append(f"  Upsilon_{name} = {_fmt(value)}")
    lines.append(f"ordering case = {case.label}")
    if case.chain:
        lines.append("ascending: " + " < ".join(case.chain))
    else:
        lines.append("ascending: (on a breakpoint; no strict chain)")
    lines.append(
        f"finite-diff max relative error = {fd_err:.3g} (h = {args.fd_step:g})"
    )
    return lines


def _cmd_scan(args: argparse.Namespace) -> list[str]:
    preset = next(p for p in covid_mitigation_presets() if p.name == args.preset)
    result = participation_scan(preset, args.capacity, _grid(args.steps))
    lines = [
        f"preset = {result.preset}",
        f"capacity = {_fmt(result.capacity)}",
        f"grid = {len(result.grid)} fractions in (0, 1)",
    ]
    if result.minimal_compliant is None:
        lines.append("minimal compliant fraction: none within capacity")
    else:
        q = result.minimal_compliant
        peak = result.peak_I[result.grid.index(q)]
        lines.append(f"minimal compliant fraction = {_fmt(q)}")
        lines.append(f"peak infected at that fraction = {_fmt(peak)}")
    lines.append(f"peaks non-increasing along grid = {'yes' if result.monotone else 'no'}")
    return lines


def _add_rate_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=("ma", "mb"), required=True)
    sub.add_argument("--beta1", type=float, required=True)
    sub.add_argument("--beta2", type=float, required=True)
    sub.add_argument("--kappa", type=float, required=True)
    sub.add_argument("--rho", type=float, help="class-1 fraction (model ma)")
    sub.add_argument("--alpha1", type=float, help="1->2 switch rate (model mb)")
    sub.add_argument("--alpha2", type=float, help="2->1 switch rate (model mb)")
    sub.add_argument("--N", type=float, default=100.0, help="population (default 100)")
    sub.add_argument(
        "--allow-beta-gt-one",
        action="store_true",
        help="lift the beta upper bounds (disables feasibility geometry)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socsir",
        description="Two-class SIR models: simulation and threshold analysis.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text, config_help in (
        ("simulate", "integrate a configured scenario", "scenario JSON document"),
        (
            "mixed",
            "run the single-then-two-class composite scenario",
            'JSON document with a "mixed" block',
        ),
    ):
        run = commands.add_parser(name, help=help_text)
        run.add_argument("--config", required=True, help=config_help)
        run.add_argument("--csv", help="write the trajectory table here")
        run.add_argument("--svg", help="write a line plot here")
        run.add_argument("--allow-beta-gt-one", action="store_true")
        run.set_defaults(handler=_cmd_run)

    r0_cmd = commands.add_parser("r0", help="basic reproduction number")
    _add_rate_flags(r0_cmd)
    r0_cmd.set_defaults(handler=_cmd_r0)

    stab = commands.add_parser("stability", help="DFE stability verdict")
    _add_rate_flags(stab)
    stab.set_defaults(handler=_cmd_stability)

    feas = commands.add_parser(
        "feasibility", help="type and vertices of the rho-feasible set"
    )
    feas.add_argument("--model", choices=("ma", "mb"), required=True)
    feas.add_argument("--kappa", type=float, required=True)
    feas.add_argument("--rho", type=float, required=True)
    feas.set_defaults(handler=_cmd_feasibility)

    bif = commands.add_parser(
        "bifurcation", help="scan rho for feasible-set type changes"
    )
    bif.add_argument("--model", choices=("ma", "mb"), required=True)
    bif.add_argument("--kappa", type=float, required=True)
    bif.add_argument("--steps", type=int, required=True, help="grid size")
    bif.add_argument("--csv", help="write rho,type rows here")
    bif.set_defaults(handler=_cmd_bifurcation)

    sens = commands.add_parser(
        "sensitivity", help="R0 sensitivity indices and their ordering"
    )
    _add_rate_flags(sens)
    sens.add_argument(
        "--fd-step",
        type=float,
        default=1e-6,
        help="relative step of the finite-difference cross-check",
    )
    sens.set_defaults(handler=_cmd_sensitivity)

    scan = commands.add_parser(
        "scan-participation",
        help="minimal compliant fraction keeping the peak infected load within capacity",
    )
    scan.add_argument(
        "--preset",
        choices=tuple(p.name for p in covid_mitigation_presets()),
        required=True,
    )
    scan.add_argument("--capacity", type=float, required=True)
    scan.add_argument("--steps", type=int, required=True, help="grid size")
    scan.set_defaults(handler=_cmd_scan)

    for sub in commands.choices.values():
        sub.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = "\n".join(args.handler(args)) + "\n"
        if args.out:
            _write(args.out, [text])
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        where = "" if exc.time is None else f" at t = {exc.time:g}"
        print(f"error{where}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
