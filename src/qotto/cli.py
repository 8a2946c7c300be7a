"""Command-line front end: cycle, sweep, ratio, validate.

Parameters come from flags and/or a plain-text config file of key=value
lines ('#' starts a comment); flags override file values. The regime
parameter may be given directly via --lambda, which fixes L1=1 and Tc=1
and derives the spectrum scale; it cannot be combined with explicit
--scale/--L1/--Tc. A preset sweep (--figure) takes no other parameter.

Exit codes: 0 ok, 1 validation failure, 2 bad arguments, 3 empty fermionic
state space, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import EmptyStateSpaceError
from .experiments import PRESETS, make_record, sweep_series, th_range, write_series
from .manybody import STATISTICS, EnsembleSpec
from .spectrum import KINDS, SpectrumSpec
from .thermo import CycleConfig, positive_work_threshold, run_cycle

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_EMPTY_STATE_SPACE = 3
EXIT_IO = 4

# dest -> (converter, default, argparse options); the flag is --dest with '_'
# as '-' (--lambda for 'lam'), config-file keys are the dest names ('lambda'
# is accepted as an alias for 'lam', '-' as '_')
_PHYSICS_PARAMS = {
    "spectrum": (str, "box", {"choices": KINDS}),
    "stats": (str, "boson", {"choices": STATISTICS}),
    "particles": (int, 1, {"metavar": "M"}),
    "levels": (int, 3, {"metavar": "N"}),
    "L1": (float, 1.0, {}),
    "R": (float, 2.0, {}),
    "Tc": (float, 1.0, {}),
    "Th": (float, 8.0, {}),
    "scale": (float, 1.0, {"help": "spectrum prefactor c in E = c g(n)/L^p"}),
    "lam": (float, None, {"help": "regime parameter c/(L1^p Tc); implies L1=1, Tc=1"}),
}

# figure number -> preset name: each digit after "fig" (fig45 serves figures 4 and 5)
_FIGURES = {int(digit): name for name in PRESETS for digit in name.removeprefix("fig")}

_SWEEP_EXTRA = {
    "figure": (int, None, {"help": f"preset sweep ({','.join(map(str, sorted(_FIGURES)))}); "
                                   "takes no physics or grid parameters"}),
    "th_min": (float, None, {}),
    "th_max": (float, None, {}),
    "th_steps": (int, 200, {}),
}


def _flag(dest: str) -> str:
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _add_flags(parser: argparse.ArgumentParser, table: dict) -> None:
    for dest, (conv, _, options) in table.items():
        parser.add_argument(_flag(dest), dest=dest, type=conv, **options)


def _load_config(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            data["lam" if key == "lambda" else key] = value
    return data


def _resolve(args: argparse.Namespace, extra: dict | None = None) -> tuple[dict, set]:
    """Flags over config-file values over defaults; --lambda sets L1, Tc, scale.

    Also returns the keys given by flag or in the config file."""
    table = {**_PHYSICS_PARAMS, **(extra or {})}
    filevals = _load_config(args.config) if args.config else {}
    unknown = set(filevals) - set(table)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    given = {name for name in table if getattr(args, name) is not None} | set(filevals)
    out = {}
    for name, (conv, default, _) in table.items():
        cli = getattr(args, name)
        if cli is not None:
            out[name] = cli
        elif name in filevals:
            out[name] = conv(filevals[name])
        else:
            out[name] = default
    if out["lam"] is not None:
        for clash in ("scale", "L1", "Tc"):
            if clash in given:
                raise ValueError(
                    f"--lambda fixes L1=1 and Tc=1 and derives the scale; "
                    f"it cannot be combined with --{clash}")
        out["scale"], out["L1"], out["Tc"] = out["lam"], 1.0, 1.0
    return out, given


def _build_cycle_config(params: dict) -> CycleConfig:
    return CycleConfig(
        spec=SpectrumSpec(params["spectrum"], scale_c=params["scale"]),
        ens=EnsembleSpec(params["stats"], params["particles"], params["levels"]),
        L1=params["L1"], R=params["R"], T_c=params["Tc"])


def _print_kv(pairs) -> None:
    print(" ".join(f"{k}={v}" for k, v in pairs))


def cmd_cycle(args: argparse.Namespace) -> int:
    params = _resolve(args)[0]
    cfg = _build_cycle_config(params)
    res = run_cycle(cfg, params["Th"])
    _print_kv([("spectrum", cfg.spec.kind), ("statistics", cfg.ens.statistics),
               ("M", cfg.ens.M), ("N", cfg.ens.N),
               ("scale", f"{cfg.spec.scale_c:.12g}"), ("L1", f"{cfg.L1:.12g}"),
               ("R", f"{cfg.R:.12g}"), ("Tc", f"{cfg.T_c:.12g}"),
               ("Th", f"{params['Th']:.12g}"),
               ("lambda", f"{cfg.regime_lambda:.12g}")])
    names = ("U1", "U2", "U3", "U4", "Qh", "Qc", "W", "eta")  # res[:8], two lines of four
    for row in (slice(0, 4), slice(4, 8)):
        _print_kv([(k, f"{v:.12g}") for k, v in zip(names[row], res[row])])
    _print_kv([("positive_work", "true" if res.positive_work else "false"),
               ("threshold_Th", f"{positive_work_threshold(cfg):.12g}")])
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace) -> int:
    params = _resolve(args)[0]
    cfg = _build_cycle_config(params)
    rec = make_record(cfg.spec, cfg.ens, cfg.L1, cfg.R, cfg.T_c, params["Th"])
    per_particle = rec.ratio / cfg.ens.M
    _print_kv([("W", f"{rec.W:.12g}"), ("Ws", f"{rec.Ws:.12g}"),
               ("ratio", f"{rec.ratio:.12g}"),
               ("per_particle_ratio", f"{per_particle:.12g}"),
               ("positive_work", "true" if rec.positive_work else "false")])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params, given = _resolve(args, _SWEEP_EXTRA)
    if not args.output:
        raise ValueError("--output is required")
    figure = params["figure"]
    if figure is not None:
        fixed = sorted(map(_flag, given - {"figure"}))
        if fixed:
            raise ValueError(f"--figure {figure} is a preset sweep; it takes no "
                             f"{', '.join(fixed)}")
        if figure not in _FIGURES:
            raise ValueError(f"--figure must be one of {sorted(_FIGURES)}, got {figure}")
        series = PRESETS[_FIGURES[figure]]()
    else:
        if params["th_min"] is None or params["th_max"] is None:
            raise ValueError("explicit sweeps need --th-min and --th-max "
                             "(or --figure for a preset)")
        grid = th_range(params["th_min"], params["th_max"], params["th_steps"])
        cfg = _build_cycle_config(params)
        series = [sweep_series(cfg.spec, cfg.ens, cfg.L1, cfg.R, cfg.T_c, grid)]
    print(f"wrote {write_series(series, args.output)} rows to {args.output}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_all  # imported here: no other command loads the check suite
    results = run_all()
    failed = sum(not res.passed for res in results)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: deviation={res.deviation:.3g} "
              f"tolerance={res.tolerance:.3g}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qotto",
        description="Quantum Otto heat engines with multilevel identical particles")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text, table in (
            ("cycle", cmd_cycle, "evaluate one Otto cycle", _PHYSICS_PARAMS),
            ("ratio", cmd_ratio, "work ratio vs a single particle", _PHYSICS_PARAMS),
            ("sweep", cmd_sweep, "write a parameter sweep as CSV",
             {**_PHYSICS_PARAMS, **_SWEEP_EXTRA})):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value parameter file")
        _add_flags(p, table)
        p.set_defaults(func=func)
    sub.choices["sweep"].add_argument("--output", required=True, help="CSV output path")

    p_val = sub.add_parser("validate", help="run the built-in check suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EmptyStateSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_STATE_SPACE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
