"""The benchmark's workloads: inputs made from the seed, one op, and its gate.

Each workload drives the package through its public API in this process
with ``n_jobs=1``.  ``setup`` makes the inputs, ``op`` does one unit of
timed work and returns what the gate needs, and ``check`` is the
per-op correctness gate, run outside the timed region.  ``run_error``
gates the run as a whole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import recency
from recency import ModelSpec, default_config, run_replicates
from recency import cli as recency_cli

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


@dataclass
class Outcome:
    """What one op produced: fits made, fits flagged non-converged, gate error."""

    fits: int
    nonconverged: int
    error: str | None = None


def reference_error(estimates: dict, ses: dict, reference: dict) -> str | None:
    """Every estimate must lie within K reported SEs of each reference it has.

    ``truth`` is the generating value, with a loose K; ``parent`` is what
    the commit that defined the benchmark computed on the same fixed input,
    with a tight K.  Scaling to the SE lets an exact-arithmetic change of
    the estimator pass while a wrong answer (off by a few SEs) fails.
    """
    for kind in ("truth", "parent"):
        k = REFERENCE[f"{kind}_tolerance_se"]
        for name, ref in reference.get(kind, {}).items():
            est, se = estimates.get(name), ses.get(name)
            if est is None or se is None or not (math.isfinite(est) and math.isfinite(se)):
                return f"{name}: no finite estimate and SE (estimate {est}, SE {se})"
            if abs(est - ref) > k * se:
                return (f"{name} = {est:.6g} is {abs(est - ref) / se:.2f} SE from the "
                        f"{kind} {ref:.6g} (limit {k} SE)")
    return None


class ReplicateStudy:
    """One ``run_replicates`` replicate per op, as the study tables run them.

    The replicates come from a fixed pool in ``reference.json``, each with
    the estimates the defining commit computed for it, so every replicate
    is gated against its own answer and a run's cost does not depend on
    which replicates it drew.  The workload seed sets the order in which a
    run cycles through the pool.
    """

    def __init__(self, name: str, scenario: str, n_total: int, extended: bool):
        self.reference = REFERENCE[name]
        self.pool = self.reference["pool"]
        self.scenario = scenario
        self.n_total = n_total
        self.spec = ModelSpec(covariate_names=("odn",), extended=extended)

    def setup(self, seed: int, workdir: Path) -> None:
        self.order = np.random.default_rng(seed).permutation(len(self.pool))

    def op(self, i: int) -> tuple[dict, dict]:
        entry = self.pool[self.order[i % len(self.pool)]]
        config = default_config(self.scenario, n_total=self.n_total, seed=entry["seed"])
        summary = run_replicates(config, 1, self.spec, n_jobs=1)
        return entry, summary.replicates[0]

    def check(self, result: tuple[dict, dict]) -> Outcome:
        entry, row = result
        out = Outcome(fits=1, nonconverged=int(not row["converged"]))
        if self.spec.extended:
            limits = self.reference["constraint_residual_limits"]
            residuals = row["constraint_residuals"]
            if not all(abs(r) <= lim for r, lim in zip(residuals, limits)):
                out.error = (f"replicate {entry['seed']}: constraint residuals {residuals} "
                             f"exceed {limits}")
                return out
        estimates = {k: v["estimate"] for k, v in row["params"].items()}
        ses = {k: v["se"] for k, v in row["params"].items()}
        finite = all(math.isfinite(estimates[k]) and math.isfinite(ses[k]) for k in estimates)
        # Every fit is gated, converged or not, except one that is flagged as
        # not converged and has no finite estimates and SEs (a diverged eta):
        # that one is counted in nonconverged_ratio, which run_error bounds.
        # A replicate whose defining fit had a flat direction has no parent
        # estimates (its ridge point is arbitrary) and is gated on the truth.
        if row["converged"] or finite:
            error = reference_error(estimates, ses, {"truth": self.reference.get("truth", {}),
                                                     "parent": entry["parent"] or {}})
            out.error = error and f"replicate {entry['seed']}: {error}"
        return out

    def run_error(self, fits: int, nonconverged: int) -> str | None:
        """Fail the run when clearly more fits than the pool's few did not converge.

        The slack covers a short run that meets a non-converged pool
        replicate once, or twice in a traced run, which fits every op twice.
        """
        ceiling = self.reference["nonconverged_ceiling"]
        if nonconverged > ceiling * fits + self.reference["nonconverged_slack"]:
            return f"{nonconverged} of {fits} fits did not converge (ceiling {ceiling:.0%})"
        return None


SURVEY_COLUMNS = ("id", "weight", "test_year", "test_month", "interview_year",
                  "interview_month", "z", "odn", "vl")


def _survey_csv(path: Path, subjects, rng, prefix: str, shares: dict) -> int:
    """Write ``subjects`` as a survey extract; return the rows preprocess keeps.

    Dates are month-resolution with the gap rounded to whole months; a
    share of test months is ``NA`` (imputed by preprocess), and a share of
    the odn / vl covariates is ``NA`` (those rows are dropped).  odn is the
    generated covariate, so its standardized value is the model's x; vl is
    drawn independently of recency, so its true coefficient is 0.
    """
    n = len(subjects)
    x = np.array([sub.covariates[0] for sub in subjects])
    s = np.array([sub.s for sub in subjects])
    z = np.array([sub.z for sub in subjects])
    gap = np.maximum(1, np.rint(s * 12.0)).astype(int)
    interview = rng.integers(2015 * 12, 2017 * 12, size=n)   # months since year 0
    test = interview - gap
    weight = rng.lognormal(0.0, 0.5, size=n)
    odn = 2.0 + x
    vl = np.rint(np.expm1(np.maximum(rng.normal(9.0, 1.5, size=n), 0.0)))
    na_month = rng.random(n) < shares["test_month_na"]
    na_odn = rng.random(n) < shares["odn_na"]
    na_vl = rng.random(n) < shares["vl_na"]
    columns = zip(
        (f"{prefix}{i:06d}" for i in range(n)),
        map(repr, weight.tolist()),
        (test // 12).tolist(),
        np.where(na_month, "NA", (test % 12 + 1).astype(str)).tolist(),
        (interview // 12).tolist(),
        (interview % 12 + 1).tolist(),
        z.tolist(),
        np.where(na_odn, "NA", [repr(v) for v in odn.tolist()]).tolist(),
        np.where(na_vl, "NA", vl.astype(np.int64).astype(str)).tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SURVEY_COLUMNS) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in columns)
    return int(n - (na_odn | na_vl).sum())


class SurveyCli:
    """``recency fit`` then ``recency predict`` on 1e5-row CSVs, in-process."""

    def setup(self, seed: int, workdir: Path) -> None:
        # The fit extract and its imputation seed are fixed: the fit's cost at
        # 1e5 rows flips between one BFGS start and four on any change to the
        # data (README.md), so only a fixed extract gives a steady figure.
        # The seed draws the predict batch.
        ref = REFERENCE["survey_1e5"]
        n_total = 2 * ref["rows"]
        self.seed = seed
        self.workdir = workdir
        self.fit_csv = workdir / "survey_fit.csv"
        self.predict_csv = workdir / "survey_predict.csv"
        extract = recency.generate(default_config("1", n_total=n_total, seed=ref["extract_seed"]))
        _survey_csv(self.fit_csv, extract.train, np.random.default_rng([ref["extract_seed"], 1]),
                    "F", ref["na_shares"])
        batch = recency.generate(default_config("1", n_total=n_total, seed=seed))
        self.predict_rows = _survey_csv(self.predict_csv, batch.test,
                                        np.random.default_rng([seed, 2]), "P", ref["na_shares"])

    def op(self, i: int) -> dict:
        fit_dir = self.workdir / "fit"
        pred_dir = self.workdir / "predict"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            fit_rc = recency_cli.main([
                "fit", "--data", str(self.fit_csv), "--covariates", "odn,logvl",
                "--out", str(fit_dir), "--seed", str(REFERENCE["survey_1e5"]["fit_seed"])])
            pred_rc = None
            if fit_rc in (0, 2):
                pred_rc = recency_cli.main([
                    "predict", "--fit", str(fit_dir / "fit.json"),
                    "--data", str(self.predict_csv), "--out", str(pred_dir),
                    "--seed", str(self.seed), "--p-hiv", "0.1", "--p-art", "0.7"])
        return {"fit_rc": fit_rc, "pred_rc": pred_rc, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(), "fit_dir": fit_dir, "pred_dir": pred_dir}

    def check(self, res: dict) -> Outcome:
        if res["fit_rc"] not in (0, 2):
            return Outcome(0, 0, f"recency fit exited {res['fit_rc']}: {res['stderr'].strip()}")
        doc = json.loads((res["fit_dir"] / "fit.json").read_text())
        out = Outcome(fits=1, nonconverged=int(not doc["converged"]))
        out.error = self._fit_error(doc) or self._predict_error(res)
        return out

    def _fit_error(self, doc: dict) -> str | None:
        # converged = false is counted as a non-converged fit, not as a
        # failed op: the reported iterate must still match the reference
        estimates = {"beta0": doc["beta"][0]}
        estimates.update({f"beta_{c}": b for c, b in zip(doc["covariates"], doc["beta"][1:])})
        estimates.update(doc["eta"])
        return reference_error(estimates, doc["se"], REFERENCE["survey_1e5"])

    def _predict_error(self, res: dict) -> str | None:
        if res["pred_rc"] != 0:
            return f"recency predict exited {res['pred_rc']}: {res['stderr'].strip()}"
        with open(res["pred_dir"] / "predictions.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = list(zip(*reader))
        if header != ["id", "s", "z", "label", "type1", "type2"]:
            return f"predictions.csv header {header}"
        if not cols or len(cols[0]) != self.predict_rows:
            n = len(cols[0]) if cols else 0
            return f"predictions.csv has {n} rows, expected {self.predict_rows}"
        s = np.array(cols[1], dtype=float)
        z = np.array(cols[2], dtype=int)
        t2 = np.array(cols[5], dtype=float)
        if not np.all((t2 >= 0.0) & (t2 <= 1.0)):
            return "type-2 risk outside [0, 1]"
        if not (np.all(t2[(s <= 1.0) & (z == 0)] == 1.0)
                and np.all(t2[(s > 1.0) & (z == 1)] == 0.0)):
            return "type-2 risk is not exactly 1 / 0 in the label-determined cells"
        found = re.search(r"incidence: (\S+)", res["stdout"])
        if found is None:
            return f"no incidence printed: {res['stdout'].strip()!r}"
        if not 0.0 <= float(found.group(1)) <= 1.0:
            return f"incidence {found.group(1)} outside [0, 1]"
        return None

    def run_error(self, fits: int, nonconverged: int) -> str | None:
        return None


def make(name: str):
    if name == "s1_study":
        return ReplicateStudy(name, "1", 2000, extended=False)
    if name == "s6_extended":
        return ReplicateStudy(name, "6", 4000, extended=True)
    if name == "survey_1e5":
        return SurveyCli()
    raise ValueError(f"unknown workload {name!r}")
