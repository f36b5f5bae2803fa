"""Command-line front end: fit, select, simulate, predict.

Every command writes a run manifest (resolved configuration, seed, input
hashes, tool, numpy and Python versions, the RECENCY_THREADS setting,
timestamps) next to its outputs so any run can be reproduced exactly.
Exit codes: 0 success, 1 operational error or bad usage, 2 statistical
non-convergence (so batch drivers can tell the two failure kinds apart).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import KNOWN_COVARIATES, ColumnMap, DataError, load, preprocess
from .estimation import (
    backward_stepwise,
    compare_eta_variants,
    fit,
    fit_report,
    load_fit,
)
from .model import ModelSpec
from .prediction import export_predictions, incidence, recency_rate
from .simulation import (
    default_config,
    run_replicates,
    summary_to_dict,
    write_replicates_csv,
)

__all__ = ["main", "entry_point"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # non-convergence, so remap usage errors to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs,
                    started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        # results are bit-identical for a given numpy release and thread count
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "recency_threads": os.environ.get("RECENCY_THREADS"),
        "started_at": started,
        "finished_at": time.time(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _parse_fix(value: str, flag: str) -> float | None:
    if value.lower() == "free":
        return None
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{flag} expects a number or 'free', got {value!r}") from None


def _covariate_list(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    if not names:
        raise UsageError("empty covariate list")
    return names


def _column_map(args) -> ColumnMap:
    overrides = {}
    for f in dataclasses.fields(ColumnMap):
        val = getattr(args, f"col_{f.name}", None)
        if val is not None:
            overrides[f.name] = val or None
    return dataclasses.replace(ColumnMap(), **overrides)


# argparse takes a value such as "-0.5,0.2" for an option (only a lone
# negative number passes), so a list flag is joined to a value that starts
# with a negative number: "--beta -0.5,0.2" parses as "--beta=-0.5,0.2".
LIST_FLAGS = frozenset({"--beta", "--eta", "--s-gamma", "--noise"})


def _join_negative_lists(argv) -> list[str]:
    out = []
    for token in argv:
        if out and out[-1] in LIST_FLAGS and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


COVARIATES_HELP = f"comma-separated covariate names ({','.join(KNOWN_COVARIATES)})"


def _add_data_flags(p):
    """The input flags of every command that reads a survey CSV."""
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-impute-month", action="store_true",
                   help="drop rows with a missing test month instead of imputing")
    p.add_argument("--phia-vl", action="store_true",
                   help="accept categorical viral-load strings (undetectable, less than N, ...)")
    for f in dataclasses.fields(ColumnMap):
        p.add_argument(f"--col-{f.name.replace('_', '-')}", dest=f"col_{f.name}",
                       default=None, help=f"CSV column holding {f.name}")


def _add_model_flags(p):
    """The flags that build the ModelSpec of ``fit`` and ``select``."""
    p.add_argument("--covariates", required=True, help=COVARIATES_HELP)
    p.add_argument("--fix-eta00", default=None, metavar="V|free",
                   help="pin eta00 (default 7) or estimate it ('free')")
    p.add_argument("--fix-eta10", default=None, metavar="V|free",
                   help="pin eta10 (default -7) or estimate it ('free')")
    p.add_argument("--p0-one", action="store_true",
                   help="set the long-term positive-result probability identically to 1")
    p.add_argument("--extended", action="store_true",
                   help="fit the density-ratio extension (tilt on the time gap)")


def _build_spec(args) -> ModelSpec:
    if args.p0_one and args.fix_eta00 is not None:
        raise UsageError("--p0-one already removes eta00/eta01; do not combine with --fix-eta00")
    fix00 = None if args.p0_one else _parse_fix(args.fix_eta00 or "7", "--fix-eta00")
    fix10 = _parse_fix(args.fix_eta10 if args.fix_eta10 is not None else "-7", "--fix-eta10")
    return ModelSpec(
        covariate_names=_covariate_list(args.covariates),
        fix_eta00=fix00,
        fix_eta10=fix10,
        p0_identically_one=args.p0_one,
        extended=args.extended,
    )


def _load_arrays(args, covariates, standardization=None):
    """The ``--data`` file as the model's arrays and the preprocessing report."""
    records = load(args.data, _column_map(args), phia_vl=args.phia_vl)
    return preprocess(records, seed=args.seed, covariates=covariates,
                      impute_month=not args.no_impute_month, standardization=standardization)


def _report_dict(report) -> dict:
    return {
        "standardization": {k: list(v) for k, v in report.stats.items()},
        "dropped": [list(item) for item in report.dropped],
        "imputations": [list(item) for item in report.imputations],
        "n_retained": report.n_retained,
    }


def cmd_fit(args) -> int:
    started = time.time()
    spec = _build_spec(args)
    arrays, report = _load_arrays(args, spec.covariate_names)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = fit(arrays, spec)
    result.recency_rate = recency_rate(arrays, result.theta_hat, spec)
    doc = fit_report(result)
    doc["preprocessing"] = _report_dict(report)
    (out / "fit.json").write_text(json.dumps(doc, indent=2))
    export_predictions(out / "predictions.csv", arrays, result.theta_hat, spec, report.ids)
    _write_manifest(out, "fit", _resolved(args), args.seed, [args.data], started)
    if not result.converged:
        print("WARNING: fit did not converge (flagged, best iterate reported)", file=sys.stderr)
        return 2
    return 0


def cmd_select(args) -> int:
    started = time.time()
    spec = _build_spec(args)
    arrays, _ = _load_arrays(args, spec.covariate_names)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    variants = compare_eta_variants(arrays, spec.covariate_names)
    variant_rows = [
        {
            "variant": v.name,
            "log_pl": v.log_pl,
            "bic": v.bic,
            "n_free": None if v.fit is None else v.fit.n_free,
            "converged": None if v.fit is None else v.fit.converged,
            "error": v.error,
        }
        for v in variants
    ]
    (out / "variants.json").write_text(json.dumps(variant_rows, indent=2))

    stepwise = backward_stepwise(arrays, spec.covariate_names, spec)
    doc = {
        "selected": list(stepwise.selected),
        "trace": [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in step.items()}
            for step in stepwise.trace
        ],
        "final_fit": fit_report(stepwise.fit),
    }
    (out / "stepwise.json").write_text(json.dumps(doc, indent=2))
    _write_manifest(out, "select", _resolved(args), args.seed, [args.data], started)
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    # ScenarioConfig checks each length and names the field
    overrides = {field: tuple(float(v) for v in text.split(","))
                 for field, text in (("beta_true", args.beta), ("eta_true", args.eta),
                                     ("s_gamma", args.s_gamma), ("noise", args.noise))
                 if text}
    if args.odn_z_coeff is not None:
        overrides["odn_in_z_coeff"] = args.odn_z_coeff
    config = default_config(args.scenario, n_total=args.n, seed=args.seed, **overrides)
    spec = ModelSpec(covariate_names=config.covariate_names, extended=args.extended)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = run_replicates(config, args.reps, spec)
    (out / "summary.json").write_text(json.dumps(summary_to_dict(summary), indent=2))
    write_replicates_csv(out / "replicates.csv", summary)
    resolved = _resolved(args)
    resolved["scenario_config"] = dataclasses.asdict(config)
    _write_manifest(out, "simulate", resolved, args.seed, [], started)
    return 0


def cmd_predict(args) -> int:
    started = time.time()
    if (args.p_hiv is None) != (args.p_art is None):
        raise UsageError("--p-hiv and --p-art must be given together")
    for flag, value in (("--p-hiv", args.p_hiv), ("--p-art", args.p_art)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise UsageError(f"{flag} must be in [0, 1], got {value}")
    try:
        fit_doc = json.loads(Path(args.fit).read_text())
        spec, theta = load_fit(fit_doc)
    except ValueError as exc:   # JSONDecodeError included
        raise DataError(f"fit file {args.fit}: {exc}") from None

    arrays, report = _load_arrays(
        args, spec.covariate_names,
        standardization=fit_doc.get("preprocessing", {}).get("standardization", {}))

    if args.p_hiv is not None:
        e_y = recency_rate(arrays, theta, spec)
        try:
            inc = incidence(args.p_hiv, args.p_art, e_y)
        except ZeroDivisionError as exc:
            raise DataError(str(exc)) from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_predictions(out / "predictions.csv", arrays, theta, spec, report.ids)
    if args.p_hiv is not None:
        print(f"incidence: {inc:.6f} (E(Y)={e_y:.4f}, "
              f"p_hiv={args.p_hiv}, p_art={args.p_art})")
    _write_manifest(out, "predict", _resolved(args), args.seed,
                    [args.data, args.fit], started)
    return 0


def _resolved(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="recency",
                     description="Likelihood-based HIV recency classification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the recency model to a CSV")
    _add_data_flags(p_fit)
    _add_model_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="eta-variant table and stepwise covariate selection")
    _add_data_flags(p_sel)
    _add_model_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo scenario")
    p_sim.add_argument("--scenario", required=True, choices=["1", "2", "5", "6", "7"])
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--n", type=int, default=None, help="total sample size before splitting")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--extended", action="store_true")
    p_sim.add_argument("--beta", default=None, help="true beta, comma separated")
    p_sim.add_argument("--eta", default=None, help="true eta00,eta01,eta10,eta11")
    p_sim.add_argument("--s-gamma", default=None,
                       help="gamma shape,rate (scenario 6: shape,rate0,rate1)")
    p_sim.add_argument("--noise", default=None,
                       help="reporting error on every reported history: s jitter "
                            "half-width,z flip rate (any scenario; nonzero by default in 5)")
    p_sim.add_argument("--odn-z-coeff", type=float, default=None,
                       help="odn's leak into both test-result expits (any scenario; "
                            "nonzero by default in 7)")
    p_sim.set_defaults(func=cmd_simulate)

    p_pred = sub.add_parser("predict", help="predictions from a stored fit")
    p_pred.add_argument("--fit", required=True, help="fit.json from a previous run")
    _add_data_flags(p_pred)
    p_pred.add_argument("--p-hiv", type=float, default=None)
    p_pred.add_argument("--p-art", type=float, default=None)
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
