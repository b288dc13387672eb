"""Command-line interface.

Verbs: ``scenarios``, ``bounds``, ``simulate``, ``hypothesis``, ``lln``,
and ``ensemble validate``.  Each prints a human table to stdout; with
``--out`` the result is first written as a structured document in the
format chosen by ``--format``.  Exit codes: 0 success, 2 validation
failure, 3 precondition failure (including a request whose sampling tables
do not fit in memory), 4 I/O failure.

Options that verbs share are declared once, in parent parsers, and the
parser converts option values as it reads them, in the order given:
``--scenario`` to the built-in scenario, an ``--n`` list to its run counts
and ``--out`` to a path in an existing directory.  So a bad value is
refused before ``TELECERT_SEED`` is read and before any work.

Every verb answers through one response path: its ``cmd_*`` function
computes the result's rows and records payload and hands them to
``_emit``, which builds the run manifest and writes document and stdout.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call and reused, and the built-in
scenarios are the shared instances of ``scenarios.builtin_scenario``, so a
request pays for neither.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import reporting, simulator, stats
from ._version import __version__
from .ensembles import load_ensemble
from .errors import PreconditionError, ValidationError, _integer
from .scenarios import BUILTIN_CONSTRUCTORS, builtin_scenario, builtin_scenarios

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

SEED_ENV_VAR = "TELECERT_SEED"


def _seed(args) -> int:
    """``--seed`` if given, else the environment default (refused under its own name), else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    return _integer(seed, SEED_ENV_VAR, 0, bits=64)


def _note_workers(args) -> None:
    """Note on stderr that a ``--workers`` other than 1 changes nothing; call once the request is accepted."""
    if args.workers != 1:
        print("note: --workers has no effect; sampling runs on one thread", file=sys.stderr)


def _parse_n_list(raw: str) -> list[int]:
    values = []
    for item in filter(None, (chunk.strip() for chunk in raw.split(","))):
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
    return builtin_scenario(name)


def _out_path(out: str) -> str:
    """``--out`` unchanged, or ``OSError`` when no write could create it."""
    if not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or os.curdir):
        raise OSError(f"--out must name a file in an existing directory, got {out!r}")
    return out


def _fields(obj, names) -> dict:
    """Attributes ``names`` of ``obj`` by name, uncopied (``asdict`` deep-copies)."""
    return {name: getattr(obj, name) for name in names}


#: ``BoundReport`` fields: a ``bounds`` row after ``n_runs``, and ``simulate``'s bound.
_BOUND_FIELDS = ("f_th_cla", "mu", "t", "log10_bound", "bound")

#: ``SimReport`` fields that ``simulate`` prints and its records ``report`` holds.
_REPORT_FIELDS = (
    "n_runs",
    "n_trials",
    "seed",
    "threshold",
    "mean_fidelity",
    "exceedance_count",
    "exceedance_frequency",
)


def _emit(
    args, command, parameters, records, payload, text=None, *, seed=None,
    sampler=simulator.SAMPLER,
) -> int:
    """Build the request's manifest, write its document if asked, print the result.

    ``records`` are the result's rows, each a dict from column header to
    value; the table and the csv document show them, and the records
    document shows ``payload``.  ``text`` is the human rendering, a table
    of the records by default.  Without ``--out`` stdout receives the
    chosen format (``text`` for the table format).  With ``--out`` the file
    receives the structured document before anything is printed, so a
    failed write leaves stdout empty, and stdout then receives ``text``.
    The document is written to a randomly named sibling file that is then
    renamed over the target, so a failed write leaves an existing target
    untouched and no partial file behind.
    """
    manifest = reporting.make_manifest(command, parameters, seed=seed, sampler=sampler)
    headers = list(records[0])
    rows = [list(record.values()) for record in records]
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
    if args.out is not None:
        partial = f"{args.out}.{os.urandom(4).hex()}.tmp"
        fh = open(partial, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(document)
            os.replace(partial, args.out)
        except BaseException:
            os.remove(partial)
            raise
        document = text
    sys.stdout.write(document)
    return EXIT_OK


def cmd_scenarios(args) -> int:
    records = [
        {
            "name": scenario.name,
            "a": scenario.ensemble.size,
            "d": scenario.ensemble.dim,
            "f_th_cla": scenario.classical_fidelity,
            "default_target": scenario.target_fidelity,
            "note": scenario.target_note,
        }
        for scenario in builtin_scenarios().values()
    ]
    return _emit(args, "scenarios", {}, records, {"rows": records})


def cmd_bounds(args) -> int:
    scenario = args.scenario
    target = scenario.target_fidelity if args.target is None else args.target
    records = [
        _fields(
            stats.scenario_bound_report(scenario, n_runs, target),
            ("n_runs", *_BOUND_FIELDS),
        )
        for n_runs in args.n
    ]
    parameters = {"scenario": scenario.name, "target": target, "n": args.n}
    payload = {"scenario": scenario.name, "target": target, "rows": records}
    return _emit(args, "bounds", parameters, records, payload)


def cmd_simulate(args) -> int:
    seed = _seed(args)
    scenario = args.scenario
    _integer(args.n, "n_runs", 1)  # before rounding, so a refusal names the N given
    a = scenario.ensemble.size
    n_runs = -(-args.n // a) * a
    threshold = scenario.target_fidelity if args.threshold is None else args.threshold
    cfg = simulator.SimConfig(
        scenario=scenario, n_runs=n_runs, n_trials=args.trials, seed=seed
    )
    report = simulator.run_experiment(cfg, threshold, workers=args.workers)
    # warn only once the request is accepted, so a refused one prints one line
    if n_runs != args.n:
        print(
            f"warning: n_runs {args.n} is not a multiple of the ensemble size {a}; "
            f"rounded up to {n_runs}",
            file=sys.stderr,
        )
    _note_workers(args)

    bound, bound_note = None, ""
    try:
        bound_row = stats.scenario_bound_report(scenario, n_runs, threshold)
        bound = _fields(bound_row, _BOUND_FIELDS)
    except PreconditionError as exc:
        bound_note = str(exc)

    try:
        exact = simulator.exact_exceedance(scenario, n_runs, threshold)
    except PreconditionError:
        exact = None

    summary = _fields(report, _REPORT_FIELDS)
    pairs = {"scenario": scenario.name, **summary, "exact_exceedance": exact}
    for name in ("log10_bound", "bound"):
        pairs[name] = None if bound is None else bound[name]
    if bound_note:
        pairs["bound_note"] = bound_note
    tallies = ("prepared_counts", "outcome_counts", "pass_counts")
    payload = {
        "report": {
            **summary,
            "pass_count_histogram": {
                "offset": report.pass_count_offset,
                "counts": report.pass_count_histogram.tolist(),
            },
            **{name: getattr(report, name).tolist() for name in tallies},
        },
        "exact_exceedance": exact,
        "bound": bound,
        "bound_note": bound_note,
    }
    parameters = {
        "scenario": scenario.name,
        "n": n_runs,
        "trials": args.trials,
        "threshold": threshold,
    }
    text = reporting.format_pairs(list(pairs.items()))
    return _emit(args, "simulate", parameters, [pairs], payload, text, seed=seed)


def cmd_hypothesis(args) -> int:
    model = _fields(args, ("f_qm", "f_cla", "f_crit", "sigma"))
    records = []
    for n_runs in args.n:
        cfg = stats.HypothesisConfig(**model, n_runs=n_runs)
        alpha, beta = stats.type_one_error(cfg), stats.type_two_error(cfg)
        records.append({"n_runs": n_runs, "alpha": alpha, "beta": beta})
    parameters = {**model, "n": args.n}
    return _emit(args, "hypothesis", parameters, records, {"rows": records})


def cmd_lln(args) -> int:
    seed = _seed(args)
    scenario = args.scenario
    ladder = simulator.lln_sweep(
        scenario, args.n, args.trials, seed, workers=args.workers
    )
    _note_workers(args)
    columns = ("n_runs", "mean_fidelity", "mean_abs_deviation", "rms_deviation")
    records = [_fields(row, columns) for row in ladder]
    try:
        slope = simulator.rms_loglog_slope(ladder)
    except ValueError:  # fewer than two distinct N, or a zero rms deviation
        slope = None
    payload = {"scenario": scenario.name, "rows": records, "rms_loglog_slope": slope}
    parameters = {"scenario": scenario.name, "n": args.n, "trials": args.trials}
    return _emit(
        args, "lln", parameters, records, payload, seed=seed,
        sampler=simulator.HISTOGRAM_SAMPLER,
    )


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
    records = [{"field": field, "value": value} for field, value in payload.items()]
    return _emit(args, "ensemble validate", {"file": args.file}, records, payload)


@functools.cache
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

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", type=_get_scenario, required=True)
    n_list = argparse.ArgumentParser(add_help=False)
    n_list.add_argument("--n", type=_parse_n_list, required=True, help="comma-separated run counts")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=100_000)
    sampling.add_argument("--seed", type=int)
    sampling.add_argument("--workers", type=int, default=1, help="at least 1; has no effect")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=reporting.FORMATS, default="table", help="output format (default: table)"
    )
    output.add_argument("--out", type=_out_path, help="write the document to this path")

    p = sub.add_parser("scenarios", parents=[output], help="list the built-in scenarios")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("bounds", parents=[scenario, n_list, output],
                       help="exceedance bound table over run counts")
    p.add_argument("--target", type=float, default=None, help="target fidelity to certify")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", parents=[scenario, sampling, output],
                       help="Monte Carlo experiment with bound comparison")
    p.add_argument("--n", type=int, required=True, help="runs per trial")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hypothesis", parents=[n_list, output],
                       help="normal-model type I/II error table")
    p.add_argument("--f-qm", dest="f_qm", type=float, required=True)
    p.add_argument("--f-cla", dest="f_cla", type=float, required=True)
    p.add_argument("--f-crit", dest="f_crit", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=cmd_hypothesis)

    p = sub.add_parser("lln", parents=[scenario, n_list, sampling, output],
                       help="fidelity convergence sweep over run counts")
    p.set_defaults(func=cmd_lln)

    p = sub.add_parser("ensemble", help="custom-ensemble utilities")
    ens_sub = p.add_subparsers(dest="ensemble_command", required=True)
    p = ens_sub.add_parser("validate", parents=[output], help="validate a custom-ensemble document")
    p.add_argument("file")
    p.set_defaults(func=cmd_ensemble_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # refuses bad option values
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"precondition error: out of memory: {detail}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
