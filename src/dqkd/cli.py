"""Command-line front end: rates, sweeps, optimization, simulation, checks.

Subcommands: keyrate, sweep, optimize, simulate, verify. Aborted protocol
runs are results, not failures; the process exits nonzero only for invalid
input, I/O problems, or failed verification. All randomness is controlled
by explicit --seed flags. Each subcommand imports what it runs when it
runs: keyrate, sweep (protosim.error_rate for backward noise) and optimize
never load numpy; simulate loads it for its one draw, and verify for small
(4x4 to 16x16) algebra, on one BLAS thread unless the environment asks.
Only sweep loads csv, and only a command that reads or writes JSON loads
json.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .rates import NAMED_ATTACKS, KeyRateReport, final_rate

if TYPE_CHECKING:
    from .attack import AttackParams
    from .protosim import ProtocolConfig

SWEEP_HEADER = ["var", "value", "xi", "e", "r_pa", "r_final", "r_final_raw", "r_bb84", "aborted"]


class ConfigError(ValueError):
    """A config document failed to parse; the message names the field."""


def _fmt(x: float) -> str:
    """12 significant digits, the sweep-file number format."""
    return f"{x:.12g}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _print_report(report: KeyRateReport) -> None:
    for key in ("xi", "e", "r_pa", "r_final", "r_final_raw", "r_bb84"):
        print(f"{key:<12} = {_fmt(getattr(report, key))}")
    print(f"{'boundary_ok':<12} = {_fmt_bool(report.boundary_ok)}")
    print(f"{'aborted':<12} = {_fmt_bool(report.aborted)}")


def _write_json(doc: dict, out: str | None, noun: str) -> None:
    """doc as sorted, indented JSON: into the --out file if given, else to stdout."""
    import json

    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {noun} to {out}")
    else:
        print(text)


def cmd_keyrate(args: argparse.Namespace) -> int:
    report = final_rate(args.xi, args.e)
    if args.json:
        _write_json(report.to_dict(), None, "report")
    else:
        _print_report(report)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.var == "xi":
        if args.xi is not None or args.symmetric:
            raise ValueError("--var xi sweeps xi itself and takes neither --xi nor --symmetric")
    elif args.e is not None:
        raise ValueError(f"--var {args.var} sets e from the swept value and takes no --e")
    elif args.var == "backward_noise" and args.symmetric:
        raise ValueError("--var backward_noise leaves xi alone and takes no --symmetric")
    elif args.symmetric and args.xi is not None:
        raise ValueError("--symmetric and --xi are mutually exclusive")
    elif not args.symmetric and args.xi is None:
        if args.var == "backward_noise":
            args.xi = 1.0  # clean forward channel unless stated otherwise
        else:
            raise ValueError("sweeping e needs either --xi or --symmetric")
    if args.var == "backward_noise" and not args.xi >= 0.0:
        raise ValueError(f"--xi {args.xi} is below 0, where forward errors alone exceed e = 1/2")
    if not args.start < args.stop:
        raise ValueError(f"start={args.start} must be below stop={args.stop}")
    if args.steps < 2:
        raise ValueError(f"steps={args.steps} must be at least 2")
    grid = [args.start + (args.stop - args.start) * i / (args.steps - 1) for i in range(args.steps)]
    if args.var == "xi":
        reports = [final_rate(v, 0.0 if args.e is None else args.e) for v in grid]
    elif args.var == "backward_noise":
        from .protosim import error_rate

        reports = [final_rate(args.xi, error_rate((1.0 + args.xi) / 2.0, v)) for v in grid]
    else:
        reports = [final_rate(1.0 - 2.0 * v if args.symmetric else args.xi, v) for v in grid]
    import csv

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for v, r in zip(grid, reports):
            nums = (v, r.xi, r.e, r.r_pa, r.r_final, r.r_final_raw, r.r_bb84)
            writer.writerow([args.var, *map(_fmt, nums), _fmt_bool(r.aborted)])
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .optimizer import FidelityConstraint, maximize_s_be

    constraint = FidelityConstraint(c0sq=args.f01, cppsq=args.fpm)
    result = maximize_s_be(constraint)
    for key in ("best_entropy", "closed_form_entropy", "gap"):
        print(f"{key:<20} = {_fmt(getattr(result, key))}")
    print(f"{'iterations':<20} = {result.iterations}")
    print(f"{'converged':<20} = {_fmt_bool(result.converged)}")
    _write_json(result.to_dict(), args.out, "result")
    return 0


def _attack_from_value(value) -> AttackParams:
    from .attack import AttackParams, named_attack, real_number

    if isinstance(value, str):
        if value == "symmetric":
            raise ConfigError(
                "config field 'attack': the symmetric attack needs an object "
                '{"name": "symmetric", "e": <value>}'
            )
        return named_attack(value)
    if isinstance(value, dict):
        if "name" in value:
            unknown = set(value) - {"name", "e"}
            if unknown:
                raise ConfigError(
                    f"attack document key '{sorted(unknown)[0]}': unknown key for a named attack"
                )
            e = value.get("e")
            if e is not None:
                try:
                    e = real_number(e)
                except (TypeError, OverflowError) as exc:
                    raise ConfigError(f"attack document key 'e': {exc}") from exc
            return named_attack(value["name"], e)
        return AttackParams.from_dict(value)
    raise ConfigError(f"config field 'attack': expected name or object, got {value!r}")


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# config keys besides "attack"; n and seed are integers, the rest real numbers
_CONFIG_FIELDS = ("n", "check_fraction", "announce_fraction", "backward_noise", "seed",
                  "abort_slack_z")


def _load_config(path: str | None, args: argparse.Namespace) -> ProtocolConfig:
    from .attack import named_attack, real_number
    from .protosim import ProtocolConfig

    doc: dict = {}
    if path is not None:
        import json

        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        unknown = set(doc) - set(_CONFIG_FIELDS) - {"attack"}
        if unknown:
            raise ConfigError(f"config field '{sorted(unknown)[0]}': unknown key")

    if args.attack_e is not None and args.attack is None:
        raise ConfigError("--attack-e needs --attack")
    attack = None
    if "attack" in doc:
        attack = _attack_from_value(doc["attack"])
    if args.attack is not None:
        attack = named_attack(args.attack, args.attack_e)
    if attack is None:
        raise ConfigError("config field 'attack': missing (no --attack either)")

    kwargs = {}
    for name in _CONFIG_FIELDS:
        cast = _integer if name in ("n", "seed") else real_number
        if name in doc:
            try:
                kwargs[name] = cast(doc[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config field '{name}': {exc}") from exc
        flag = getattr(args, name, None)
        if flag is not None:
            kwargs[name] = flag
    if "n" not in kwargs:
        raise ConfigError("config field 'n': missing (no --n either)")
    try:
        return ProtocolConfig(attack=attack, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    from .protosim import STATE_LABELS, run_protocol

    config = _load_config(args.config, args)
    stats, report = run_protocol(config)

    trials_for = dict.fromkeys(STATE_LABELS, 0)
    for key, count in stats.counts.items():
        trials_for[key.split("|")[0]] += count
    rows = [
        ("f0", stats.est_f0, stats.se_f0, trials_for["0"]),
        ("f1", stats.est_f1, stats.se_f1, trials_for["1"]),
        ("fplus", stats.est_fplus, stats.se_fplus, trials_for["+"]),
        ("fminus", stats.est_fminus, stats.se_fminus, trials_for["-"]),
        ("e", stats.est_e, stats.se_e, stats.n_announced),
        ("xi", stats.est_xi, stats.se_xi, stats.n_check_consistent),
    ]
    print(f"{'quantity':<10} {'value':>16} {'se':>16} {'n_used':>10}")
    for name, value, se, used in rows:
        print(f"{name:<10} {_fmt(value):>16} {_fmt(se):>16} {used:>10}")
    print(f"raw key m = {stats.m}, k_est = {stats.k_est}, "
          f"aborted = {_fmt_bool(stats.aborted)}")

    doc = {"config": config.to_dict(), "stats": stats.to_dict(), "report": report.to_dict()}
    _write_json(doc, args.out, "results")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    report = run_verification(trials=args.trials, seed=args.seed)
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"[{verdict}] {check.name}: max deviation {check.max_deviation:.3e} "
            f"(tolerance {check.tolerance}) over {check.trials} trials"
        )
    if report.ok:
        print("all checks passed")
        return 0
    failed = sum(1 for c in report.checks if not c.passed)
    print(f"FAILED: {failed} of {len(report.checks)} checks")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqkd",
        description="Security analysis of the four-state two-way deterministic "
        "QKD protocol: key rates, attack optimization, protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keyrate", help="evaluate the asymptotic key rate at (xi, e)")
    p.add_argument("--xi", type=float, required=True, help="forward rate parameter in [-1, 1]")
    p.add_argument("--e", type=float, required=True, help="announced-bit error rate in [0, 1/2]")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the table")
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("sweep", help="tabulate rates along one variable into a CSV file")
    p.add_argument("--var", required=True, choices=("e", "xi", "backward_noise"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--xi", type=float, default=None, help="fixed xi when sweeping e")
    p.add_argument("--e", type=float, default=None, help="fixed e when sweeping xi (default 0)")
    p.add_argument(
        "--symmetric",
        action="store_true",
        help="tie xi = 1 - 2e while sweeping e (symmetric-attack channel)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="maximize the eavesdropper entropy at fixed fidelities")
    p.add_argument("--f01", type=float, required=True, help="computational-basis fidelity")
    p.add_argument("--fpm", type=float, required=True, help="diagonal-basis fidelity")
    p.add_argument("--out", default=None, help="write the JSON result here instead of stdout")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo run of the full protocol")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--attack", default=None, choices=NAMED_ATTACKS, help="named attack")
    p.add_argument("--attack-e", type=float, default=None, help="disturbance for --attack symmetric")
    p.add_argument("--n", type=int, default=None, help="number of forward qubits")
    p.add_argument("--check-fraction", dest="check_fraction", type=float, default=None)
    p.add_argument("--announce-fraction", dest="announce_fraction", type=float, default=None)
    p.add_argument("--backward-noise", dest="backward_noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--abort-slack-z", dest="abort_slack_z", type=float, default=None)
    p.add_argument("--out", default=None, help="write the JSON results here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-run the numerical certification suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # before any subcommand loads numpy: a BLAS thread pool costs more to start
    # than it saves on small matrices; a value set in the environment wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
