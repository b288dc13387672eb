"""Command-line interface.

Verbs: ``scenarios``, ``bounds``, ``simulate``, ``hypothesis``, ``lln``,
and ``ensemble validate``.  Each prints a human table to stdout; with
``--out`` the result is first written as a structured document in the
format chosen by ``--format``.  Exit codes: 0 success, 2 validation
failure, 3 precondition failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import reporting, simulator, stats
from ._version import __version__
from .ensembles import load_ensemble
from .errors import PreconditionError, ValidationError
from .scenarios import BUILTIN_CONSTRUCTORS, builtin_scenarios

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

SEED_ENV_VAR = "TELECERT_SEED"


def _seed(args) -> int:
    """``--seed`` if given, else the environment default, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _parse_n_list(raw: str) -> list[int]:
    items = [chunk.strip() for chunk in raw.split(",")]
    values = []
    for item in items:
        if not item:
            continue
        try:
            values.append(int(item))
        except ValueError as exc:
            raise ValidationError(f"--n entries must be integers, got {item!r}") from exc
    if not values:
        raise ValidationError(f"--n needs at least one run count, got {raw!r}")
    return values


def _get_scenario(name: str):
    if name not in BUILTIN_CONSTRUCTORS:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {', '.join(BUILTIN_CONSTRUCTORS)}"
        )
    return BUILTIN_CONSTRUCTORS[name]()


def _emit(args, manifest, headers, rows, payload, text=None) -> None:
    """Write the structured document if asked, then print the result.

    ``text`` is the human rendering, a table of ``rows`` by default.
    Without ``--out`` stdout receives the chosen format (``text`` for the
    table format).  With ``--out`` the file receives the structured
    document before anything is printed, so a failed write leaves stdout
    empty, and stdout then receives ``text``.  The document is written to
    a sibling file that is then renamed over the target, so a failed write
    leaves an existing target untouched and no partial file behind.
    """
    if text is None:
        text = reporting.format_table(headers, rows)
    if args.format == "records":
        document = reporting.records_document(manifest, payload)
    elif args.format == "csv":
        document = reporting.csv_document(manifest, headers, rows)
    elif args.out is None:
        document = text
    else:
        document = reporting.table_document(manifest, headers, rows)
    if args.out is None:
        sys.stdout.write(document)
        return
    partial = f"{args.out}.{os.getpid()}.tmp"
    fh = open(partial, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(document)
        os.replace(partial, args.out)
    except BaseException:
        os.remove(partial)
        raise
    sys.stdout.write(text)


def cmd_scenarios(args) -> int:
    headers = ["name", "a", "d", "f_th_cla", "default_target", "note"]
    rows = []
    for scenario in builtin_scenarios().values():
        f = stats.classical_fidelity(scenario.ensemble, scenario.povm)
        rows.append(
            [
                scenario.name,
                scenario.ensemble.size,
                scenario.ensemble.dim,
                f,
                scenario.target_fidelity,
                scenario.target_note,
            ]
        )
    manifest = reporting.make_manifest("scenarios", {})
    payload = {"rows": [dict(zip(headers, row)) for row in rows]}
    _emit(args, manifest, headers, rows, payload)
    return EXIT_OK


def cmd_bounds(args) -> int:
    scenario = _get_scenario(args.scenario)
    target = scenario.target_fidelity if args.target is None else args.target
    n_values = _parse_n_list(args.n)
    headers = ["n_runs", "f_th_cla", "mu", "t", "log10_bound", "bound"]
    rows = []
    for n_runs in n_values:
        report = stats.scenario_bound_report(scenario, n_runs, target)
        rows.append(
            [
                report.n_runs,
                report.f_th_cla,
                report.mu,
                report.t,
                report.log10_bound,
                report.bound,
            ]
        )
    manifest = reporting.make_manifest(
        "bounds",
        {"scenario": scenario.name, "target": target, "n": n_values},
    )
    payload = {
        "scenario": scenario.name,
        "target": target,
        "rows": [dict(zip(headers, row)) for row in rows],
    }
    _emit(args, manifest, headers, rows, payload)
    return EXIT_OK


def _rounded_runs(n_runs: int, a: int) -> int:
    if n_runs < 1:
        raise ValidationError(f"n_runs must be positive, got {n_runs}")
    if n_runs % a == 0:
        return n_runs
    rounded = n_runs + (a - n_runs % a)
    print(
        f"warning: n_runs {n_runs} is not a multiple of the ensemble size {a}; "
        f"rounded up to {rounded}",
        file=sys.stderr,
    )
    return rounded


def cmd_simulate(args) -> int:
    seed = _seed(args)
    scenario = _get_scenario(args.scenario)
    a = scenario.ensemble.size
    n_runs = _rounded_runs(args.n, a)
    threshold = scenario.target_fidelity if args.threshold is None else args.threshold
    cfg = simulator.SimConfig(
        scenario=scenario, n_runs=n_runs, n_trials=args.trials, seed=seed
    )
    report = simulator.run_experiment(cfg, threshold, workers=args.workers)

    bound_block = None
    bound_note = ""
    try:
        bound = stats.scenario_bound_report(scenario, n_runs, threshold)
        bound_block = {
            "f_th_cla": bound.f_th_cla,
            "mu": bound.mu,
            "t": bound.t,
            "log10_bound": bound.log10_bound,
            "bound": bound.bound,
        }
    except PreconditionError as exc:
        bound_note = str(exc)

    exact = None
    try:
        exact = simulator.exact_exceedance(scenario, n_runs, threshold)
    except PreconditionError:
        pass

    pairs = [
        ("scenario", scenario.name),
        ("n_runs", n_runs),
        ("n_trials", report.n_trials),
        ("seed", report.seed),
        ("threshold", threshold),
        ("mean_fidelity", report.mean_fidelity),
        ("exceedance_count", report.exceedance_count),
        ("exceedance_frequency", report.exceedance_frequency),
        ("exact_exceedance", exact),
        ("log10_bound", None if bound_block is None else bound_block["log10_bound"]),
        ("bound", None if bound_block is None else bound_block["bound"]),
    ]
    if bound_note:
        pairs.append(("bound_note", bound_note))

    manifest = reporting.make_manifest(
        "simulate",
        {
            "scenario": scenario.name,
            "n": n_runs,
            "trials": args.trials,
            "threshold": threshold,
        },
        seed=seed,
    )
    payload = {
        "report": {
            "n_runs": report.n_runs,
            "n_trials": report.n_trials,
            "seed": report.seed,
            "threshold": report.threshold,
            "mean_fidelity": report.mean_fidelity,
            "exceedance_count": report.exceedance_count,
            "exceedance_frequency": report.exceedance_frequency,
            "pass_count_histogram": {
                "offset": report.pass_count_offset,
                "counts": report.pass_count_histogram.tolist(),
            },
            "prepared_counts": report.prepared_counts.tolist(),
            "outcome_counts": report.outcome_counts.tolist(),
            "pass_counts": report.pass_counts.tolist(),
        },
        "exact_exceedance": exact,
        "bound": bound_block,
        "bound_note": bound_note,
    }
    headers = [k for k, _ in pairs]
    rows = [[v for _, v in pairs]]
    _emit(args, manifest, headers, rows, payload, reporting.format_pairs(pairs))
    return EXIT_OK


def cmd_hypothesis(args) -> int:
    n_values = _parse_n_list(args.n)
    headers = ["n_runs", "alpha", "beta"]
    rows = []
    for n_runs in n_values:
        cfg = stats.HypothesisConfig(
            f_qm=args.f_qm,
            f_cla=args.f_cla,
            f_crit=args.f_crit,
            sigma=args.sigma,
            n_runs=n_runs,
        )
        rows.append([n_runs, stats.type_one_error(cfg), stats.type_two_error(cfg)])
    manifest = reporting.make_manifest(
        "hypothesis",
        {
            "f_qm": args.f_qm,
            "f_cla": args.f_cla,
            "f_crit": args.f_crit,
            "sigma": args.sigma,
            "n": n_values,
        },
    )
    payload = {"rows": [dict(zip(headers, row)) for row in rows]}
    _emit(args, manifest, headers, rows, payload)
    return EXIT_OK


def cmd_lln(args) -> int:
    seed = _seed(args)
    scenario = _get_scenario(args.scenario)
    n_values = _parse_n_list(args.n)
    rows_data = simulator.lln_sweep(
        scenario, n_values, args.trials, seed, workers=args.workers
    )
    headers = ["n_runs", "mean_fidelity", "mean_abs_deviation", "rms_deviation"]
    rows = [
        [r.n_runs, r.mean_fidelity, r.mean_abs_deviation, r.rms_deviation]
        for r in rows_data
    ]
    slope = simulator.rms_loglog_slope(rows_data) if len(rows_data) >= 2 else None
    manifest = reporting.make_manifest(
        "lln",
        {"scenario": scenario.name, "n": n_values, "trials": args.trials},
        seed=seed,
        sampler=simulator.HISTOGRAM_SAMPLER,
    )
    payload = {
        "scenario": scenario.name,
        "rows": [dict(zip(headers, row)) for row in rows],
        "rms_loglog_slope": slope,
    }
    _emit(args, manifest, headers, rows, payload)
    return EXIT_OK


def cmd_ensemble_validate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    ensemble = load_ensemble(text)
    payload = {
        "valid": True,
        "name": ensemble.name,
        "a": ensemble.size,
        "d": ensemble.dim,
        "uniform_priors": ensemble.has_uniform_priors(),
    }
    rows = [list(item) for item in payload.items()]
    manifest = reporting.make_manifest("ensemble validate", {"file": args.file})
    _emit(args, manifest, ["field", "value"], rows, payload)
    return EXIT_OK


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=reporting.FORMATS,
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument("--out", default=None, help="write the document to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telecert",
        description=(
            "Decide whether an observed teleportation fidelity could have been "
            "produced in N runs without entanglement."
        ),
    )
    parser.add_argument("--version", action="version", version=f"telecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="list the built-in scenarios")
    _add_output_options(p)
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("bounds", help="exceedance bound table over run counts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--target", type=float, default=None, help="target fidelity to certify")
    p.add_argument("--n", required=True, help="comma-separated run counts")
    _add_output_options(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo experiment with bound comparison")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True, help="runs per trial")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help="at least 1; has no effect")
    _add_output_options(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hypothesis", help="normal-model type I/II error table")
    p.add_argument("--f-qm", dest="f_qm", type=float, required=True)
    p.add_argument("--f-cla", dest="f_cla", type=float, required=True)
    p.add_argument("--f-crit", dest="f_crit", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", required=True, help="comma-separated run counts")
    _add_output_options(p)
    p.set_defaults(func=cmd_hypothesis)

    p = sub.add_parser("lln", help="fidelity convergence sweep over run counts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", required=True, help="comma-separated run counts")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help="at least 1; has no effect")
    _add_output_options(p)
    p.set_defaults(func=cmd_lln)

    p = sub.add_parser("ensemble", help="custom-ensemble utilities")
    ens_sub = p.add_subparsers(dest="ensemble_command", required=True)
    pv = ens_sub.add_parser("validate", help="validate a custom-ensemble document")
    pv.add_argument("file")
    _add_output_options(pv)
    pv.set_defaults(func=cmd_ensemble_validate)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
