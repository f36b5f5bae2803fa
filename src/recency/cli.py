"""Command-line front end: fit, select, simulate, predict.

Every command writes a run manifest (resolved configuration, seed, input
hashes, tool version, timestamps) next to its outputs so any run can be
reproduced exactly.  Exit codes: 0 success, 1 operational error or bad
usage, 2 statistical non-convergence (so batch drivers can tell the two
failure kinds apart).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import ColumnMap, DataError, load, preprocess
from .estimation import (
    backward_stepwise,
    compare_eta_variants,
    fit,
    fit_report,
)
from .model import ModelSpec, Theta
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
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"covariate(s) listed more than once: {', '.join(repeated)}")
    return names


def _column_map(args) -> ColumnMap:
    overrides = {}
    for f in dataclasses.fields(ColumnMap):
        val = getattr(args, f"col_{f.name}", None)
        if val is not None:
            overrides[f.name] = val or None
    return dataclasses.replace(ColumnMap(), **overrides)


COVARIATES_HELP = "comma-separated covariate names (age,gender,odn,logvl,cd4)"


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
    p.add_argument("--fix-eta00", default=None, metavar="V|free",
                   help="pin eta00 (default 7) or estimate it ('free')")
    p.add_argument("--fix-eta10", default=None, metavar="V|free",
                   help="pin eta10 (default -7) or estimate it ('free')")
    p.add_argument("--p0-one", action="store_true",
                   help="set the long-term positive-result probability identically to 1")
    p.add_argument("--extended", action="store_true",
                   help="fit the density-ratio extension (tilt on the time gap)")


def _build_spec(args, covariates) -> ModelSpec:
    if args.p0_one and args.fix_eta00 is not None:
        raise UsageError("--p0-one already removes eta00/eta01; do not combine with --fix-eta00")
    fix00 = None if args.p0_one else _parse_fix(args.fix_eta00 or "7", "--fix-eta00")
    fix10 = _parse_fix(args.fix_eta10 if args.fix_eta10 is not None else "-7", "--fix-eta10")
    return ModelSpec(
        covariate_names=covariates,
        fix_eta00=fix00,
        fix_eta10=fix10,
        p0_identically_one=args.p0_one,
        extended=args.extended,
    )


def _load_arrays(args):
    columns = _column_map(args)
    covariates = _covariate_list(args.covariates)
    records = load(args.data, columns, phia_vl=args.phia_vl)
    arrays, report = preprocess(
        records, seed=args.seed, covariates=covariates,
        impute_month=not args.no_impute_month,
    )
    return arrays, report, covariates


def _report_dict(report) -> dict:
    return {
        "standardization": {k: list(v) for k, v in report.stats.items()},
        "dropped": [list(item) for item in report.dropped],
        "imputations": [list(item) for item in report.imputations],
        "n_retained": report.n_retained,
    }


def cmd_fit(args) -> int:
    started = time.time()
    arrays, report, covariates = _load_arrays(args)
    spec = _build_spec(args, covariates)
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
    if not args.covariates and not args.candidates:
        raise UsageError("select needs --candidates (or --covariates)")
    if not args.covariates:
        args.covariates = args.candidates
    elif args.candidates and args.candidates != args.covariates:
        raise UsageError("--candidates and --covariates disagree; pass one of them")
    arrays, report, covariates = _load_arrays(args)
    spec = _build_spec(args, covariates)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    variants = compare_eta_variants(arrays, covariates)
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

    stepwise = backward_stepwise(arrays, covariates, spec)
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
    overrides = {}
    if args.beta:
        overrides["beta_true"] = tuple(float(v) for v in args.beta.split(","))
    if args.eta:
        vals = tuple(float(v) for v in args.eta.split(","))
        if len(vals) != 4:
            raise UsageError("--eta expects four comma-separated values")
        overrides["eta_true"] = vals
    if args.s_gamma:
        overrides["s_gamma"] = tuple(float(v) for v in args.s_gamma.split(","))
    if args.noise:
        vals = tuple(float(v) for v in args.noise.split(","))
        if len(vals) != 2:
            raise UsageError("--noise expects jitter,flip-rate")
        overrides["noise"] = vals
    if args.odn_z_coeff is not None:
        overrides["odn_in_z_coeff"] = args.odn_z_coeff
    config = default_config(args.scenario, n_total=args.n, seed=args.seed, **overrides)

    n_cov = 2 if config.scenario == "S2" else 1
    names = ("logvl", "odn") if n_cov == 2 else ("odn",)
    spec = ModelSpec(covariate_names=names, extended=args.extended)

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
    fit_doc = json.loads(Path(args.fit).read_text())
    spec_doc = fit_doc["spec"]
    spec = ModelSpec(
        covariate_names=tuple(spec_doc["covariate_names"]),
        fix_eta00=spec_doc["fix_eta00"],
        fix_eta10=spec_doc["fix_eta10"],
        p0_identically_one=spec_doc["p0_identically_one"],
        extended=spec_doc["extended"],
        z_model_covariate=spec_doc.get("z_model_covariate"),
    )
    eta_doc = fit_doc["eta"]
    theta = Theta(
        beta=np.array(fit_doc["beta"]),
        eta=np.array([eta_doc.get("eta00", 0.0), eta_doc.get("eta01", 0.0),
                      eta_doc.get("eta10", 0.0), eta_doc.get("eta11", 0.0)]),
        psi=None if fit_doc.get("psi") is None else np.array(fit_doc["psi"]),
        eta_x=fit_doc.get("eta_x"),
        fixed_mask=spec.fixed_mask(),
    )

    columns = _column_map(args)
    records = load(args.data, columns, phia_vl=args.phia_vl)
    absent = [
        name for name in spec.covariate_names
        if np.isnan(records.vl if name == "logvl" else getattr(records, name)).all()
        and not (name == "logvl" and records.vl_raw)
    ]
    if absent:
        raise DataError(
            f"data is missing covariate column(s) required by the fit: {', '.join(absent)}"
        )
    arrays, report = preprocess(
        records, seed=args.seed, covariates=tuple(spec.covariate_names),
        impute_month=not args.no_impute_month,
        standardization=fit_doc.get("preprocessing", {}).get("standardization", {}),
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_predictions(out / "predictions.csv", arrays, theta, spec, report.ids)
    if args.p_hiv is not None:
        e_y = recency_rate(arrays, theta, spec)
        inc = incidence(args.p_hiv, args.p_art, e_y)
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
    p_fit.add_argument("--covariates", required=True, help=COVARIATES_HELP)
    _add_model_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="eta-variant table and stepwise covariate selection")
    _add_data_flags(p_sel)
    p_sel.add_argument("--covariates", default=None, help=COVARIATES_HELP)
    _add_model_flags(p_sel)
    p_sel.add_argument("--candidates", default=None,
                       help="candidate covariates for stepwise deletion (defaults to --covariates)")
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
                       help="jitter half-width,flip rate (scenario 5; applied to every "
                            "reported history, train and test halves)")
    p_sim.add_argument("--odn-z-coeff", type=float, default=None,
                       help="covariate leak into the test-result model (scenario 7)")
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
        args = parser.parse_args(argv)
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
