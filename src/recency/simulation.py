"""Scenario generators, AUC, and the Monte-Carlo replicate harness.

Scenarios
---------
S1  single standard-normal covariate; time gaps from one Gamma law,
    independent of everything else; test results from the two-expit
    model with deterministic cells.
S2  two covariates from a bivariate normal; the intercept is solved per
    draw so the recent fraction hits a target; adds a third equal-size
    split (a contingency-table arm for external consumers).
S5  S1 plus reporting error (``noise``, honoured in any scenario) on
    every respondent's reported history: uniform jitter on the time gap
    and random flips of the reported test result.  The test half keeps
    the mask of subjects whose *true* history leaves the status latent,
    so Type-2 AUC scores the same population as in S1.
S6  time gaps from two Gamma laws sharing a shape, conditional on the
    recency status; the implied density ratio is exactly the
    exponential tilt with psi0 = shape*log(rate1/rate0),
    psi1 = rate0 - rate1.
S7  S1 with the odn covariate leaking into both test-result expits
    (``odn_in_z_coeff``, honoured in any scenario).

Each replicate derives its RNG stream from the config seed via
SeedSequence.spawn, so results are bit-identical regardless of how many
workers execute them.
"""

from __future__ import annotations

import csv
import math
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .estimation import brentq, fit
from .glm import fit_weighted_logistic
from .model import ModelSpec, SubjectArrays, Theta, check_theta_spec, logistic, pi_recent
from .prediction import _type2_vector, recency_rate

__all__ = [
    "ScenarioConfig",
    "GeneratedData",
    "default_config",
    "generate",
    "auc",
    "run_replicates",
    "ParamStats",
    "ReplicateSummary",
    "summary_to_dict",
    "write_replicates_csv",
]

SCENARIOS = ("S1", "S2", "S5", "S6", "S7")
S_FLOOR = 1.0 / 365.0   # jittered gaps are clamped one day short of the interview


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs to be regenerated exactly."""

    scenario: str
    n_total: int = 2000
    beta_true: tuple[float, ...] = (0.95, -0.53)
    eta_true: tuple[float, float, float, float] = (7.0, -0.62, -7.0, -5.71)
    s_gamma: tuple[float, ...] = (0.60, 0.19)   # (shape, rate); S6: (shape, rate0, rate1)
    cov_mean: tuple[float, float] | None = None         # S2
    cov_cov: tuple[tuple[float, float], ...] | None = None
    target_mean_y: float | None = None                  # S2: solve intercept for this
    noise: tuple[float, float] = (0.0, 0.0)   # (s jitter half-width, z flip rate); S5 default
    odn_in_z_coeff: float = 0.0               # odn's leak into both test-result expits; S7 default
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.n_total <= 0:
            raise ValueError(f"n_total must be positive, got {self.n_total}")
        n_beta = len(self.covariate_names) + 1
        if len(self.beta_true) != n_beta:
            raise ValueError(f"beta_true must have {n_beta} entries for {self.scenario}, the "
                             f"intercept and one slope per covariate; got {len(self.beta_true)}")
        if len(self.eta_true) != 4:
            raise ValueError("eta_true must have 4 entries, (eta00, eta01, eta10, eta11); "
                             f"got {len(self.eta_true)}")
        if len(self.noise) != 2:
            raise ValueError("noise must have 2 entries, (s jitter half-width, z flip rate); "
                             f"got {len(self.noise)}")
        for name in ("beta_true", "eta_true", "s_gamma", "noise", "odn_in_z_coeff"):
            if not np.isfinite(getattr(self, name)).all():   # a nan passes every bound below
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_total % 2 != 0:
            raise ValueError("n_total must be even (half train, half test)")
        if self.scenario == "S2" and self.n_total % 3 != 0:
            raise ValueError("S2 splits into three equal groups; n_total must be divisible by 3")
        if self.noise[0] < 0.0:
            raise ValueError(f"s jitter half-width must be >= 0, got {self.noise[0]}")
        if not 0.0 <= self.noise[1] < 1.0:
            raise ValueError("z flip rate must be in [0, 1)")
        if any(g <= 0 for g in self.s_gamma):
            raise ValueError("gamma parameters must be positive")
        if len(self.s_gamma) != (3 if self.scenario == "S6" else 2):
            gamma = "(shape, rate0, rate1)" if self.scenario == "S6" else "(shape, rate)"
            raise ValueError(f"{self.scenario} needs s_gamma = {gamma}, got {self.s_gamma}")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        """The scenario's covariates, in the columns of its ``x``."""
        return ("logvl", "odn") if self.scenario == "S2" else ("odn",)

    @property
    def psi_true(self) -> tuple[float, float] | None:
        """Tilt implied by the two-Gamma construction (S6 only)."""
        if self.scenario != "S6":
            return None
        shape, r0, r1 = self.s_gamma
        return (shape * math.log(r1 / r0), r0 - r1)


def default_config(scenario: str, n_total: int | None = None, seed: int = 0,
                   **overrides) -> ScenarioConfig:
    """Canonical configs matching each scenario's protocol."""
    scenario = scenario.upper() if scenario.upper().startswith("S") else f"S{scenario}"
    base: dict = {"scenario": scenario, "seed": seed}
    if scenario == "S2":
        base.update(
            n_total=3000 if n_total is None else n_total,
            beta_true=(0.0, -0.19, -0.49),    # (solved intercept, logvl, odn)
            cov_mean=(3.5, 1.7),
            cov_cov=((4.0, -0.6), (-0.6, 1.2)),
            target_mean_y=0.5,
        )
    elif scenario == "S5":
        base.update(noise=(1.0 / 6.0, 0.02))
    elif scenario == "S6":
        base.update(s_gamma=(0.60, 0.12, 0.19))
    elif scenario == "S7":
        base.update(odn_in_z_coeff=0.5)
    if n_total is not None:
        base["n_total"] = n_total
    base.update(overrides)
    return ScenarioConfig(**base)


@dataclass
class GeneratedData:
    """Simulated train/test split plus the latent truth for evaluation.

    The draws are held as :class:`SubjectArrays` (``train_arrays``,
    ``test_arrays`` and, for S2, ``contingency_arrays``).  ``train`` and
    ``test`` list the same subjects as per-row records
    (``covariates, s, z, w``), built each time they are read.  Only the
    benchmark's survey workload reads them; benchmark v2 (ROADMAP
    direction 1) moves it to the arrays and deletes both.
    """

    train_arrays: SubjectArrays
    y_train: np.ndarray
    test_arrays: SubjectArrays
    y_test: np.ndarray
    test_latent: np.ndarray   # true history leaves the status latent
    contingency_arrays: SubjectArrays | None = None
    y_contingency: np.ndarray | None = None
    solved_beta0: float | None = None

    @property
    def train(self) -> list:
        return _rows(self.train_arrays)

    @property
    def test(self) -> list:
        return _rows(self.test_arrays)


def _labeled(arrs: SubjectArrays) -> np.ndarray:
    """Subjects whose reported history determines the label (cases I and II)."""
    recent, longterm, _, _ = arrs.case_masks()
    return recent | longterm


_Row = namedtuple("_Row", "covariates s z w")


def _rows(arrs: SubjectArrays) -> list:
    return list(map(_Row, arrs.x, arrs.s.tolist(), arrs.z.tolist(), arrs.w.tolist()))


def _draw_z(rng, y, s, q0, q1):
    """Test results: deterministic cells plus the two Bernoulli branches."""
    n = y.size
    z = np.empty(n, dtype=int)
    inside = s <= 1.0
    z[inside & (y == 0)] = 1
    z[~inside & (y == 1)] = 0
    m1 = inside & (y == 1)
    z[m1] = (rng.random(m1.sum()) < logistic(q1[m1])).astype(int)
    m0 = ~inside & (y == 0)
    z[m0] = (rng.random(m0.sum()) < logistic(q0[m0])).astype(int)
    return z


def _misreport(rng, noise, s, z):
    """Reported (s, z): uniform jitter on s, clamped at S_FLOOR, then z flips."""
    jitter, flip_rate = noise
    if jitter > 0:
        s = np.maximum(s + rng.uniform(-jitter, jitter, size=s.size), S_FLOOR)
    if flip_rate > 0:
        z = np.where(rng.random(z.size) < flip_rate, 1 - z, z)
    return s, z


def generate(config: ScenarioConfig, rng: np.random.Generator | None = None) -> GeneratedData:
    """Draw one dataset; equal sampling weights throughout."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_total
    eta = np.asarray(config.eta_true)
    solved_beta0 = None

    if config.scenario == "S2":
        mean = np.asarray(config.cov_mean, dtype=float)
        cov = np.asarray(config.cov_cov, dtype=float)
        x = rng.multivariate_normal(mean, cov, size=n)
        slopes = np.asarray(config.beta_true[1:], dtype=float)
        lin = x @ slopes

        def mean_y(b0):
            return float(np.mean(logistic(b0 + lin))) - config.target_mean_y

        solved_beta0 = brentq(mean_y, -30.0, 30.0, xtol=1e-12)
        beta = np.concatenate([[solved_beta0], slopes])
    else:
        x = rng.standard_normal((n, 1))
        beta = np.asarray(config.beta_true, dtype=float)

    pi = logistic(beta[0] + x @ beta[1:])
    y = (rng.random(n) < pi).astype(int)

    shape = config.s_gamma[0]
    if config.scenario == "S6":
        _, r0, r1 = config.s_gamma
        rates = np.where(y == 1, r1, r0)
        s = rng.gamma(shape, 1.0 / rates)
    else:
        rate = config.s_gamma[1]
        s = rng.gamma(shape, 1.0 / rate, size=n)

    q0 = eta[0] + eta[1] * (s - 1.0)
    q1 = eta[2] + eta[3] * (s - 1.0)
    if config.odn_in_z_coeff:
        leak = config.odn_in_z_coeff * x[:, config.covariate_names.index("odn")]
        q0, q1 = q0 + leak, q1 + leak
    z = _draw_z(rng, y, s, q0, q1)

    perm = rng.permutation(n)
    if config.scenario == "S2":
        third = n // 3
        idx_ct, idx_tr, idx_te = perm[:third], perm[third:2 * third], perm[2 * third:]
    else:
        half = n // 2
        idx_ct, idx_tr, idx_te = None, perm[:half], perm[half:]

    def reported(idx):
        """The subjects at ``idx`` as they report their history, equally weighted."""
        s_rep, z_rep = _misreport(rng, config.noise, s[idx], z[idx])
        return SubjectArrays(x=x[idx], s=s_rep, z=z_rep, w=np.ones(idx.size))

    data = GeneratedData(
        # the train half draws its reporting error first, so its reports
        # never depend on the test half; zero noise draws nothing
        train_arrays=reported(idx_tr),
        y_train=y[idx_tr],
        test_arrays=reported(idx_te),
        y_test=y[idx_te],
        # latent: the true history is a cell of unknown label, (s <= 1, z = 1) or (s > 1, z = 0)
        test_latent=(s[idx_te] <= 1.0) == (z[idx_te] == 1),
        solved_beta0=solved_beta0,
    )
    if idx_ct is not None:
        data.contingency_arrays = reported(idx_ct)
        data.y_contingency = y[idx_ct]
    return data


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling; NaN if any score is NaN."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n1 = int((labels == 1).sum())
    n0 = int((labels == 0).sum())
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC needs both classes present")
    if np.isnan(scores).any():
        return math.nan
    # midranks: a tied group of c scores ending at sorted position k ranks k - (c - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


@dataclass
class ParamStats:
    truth: float
    mean_estimate: float
    mean_se: float
    sd: float
    coverage95: float
    n: int

    @property
    def mc_se(self) -> float:
        return self.sd / math.sqrt(self.n) if self.n > 1 else math.nan


@dataclass
class ReplicateSummary:
    scenario: str
    n_reps: int
    n_converged: int
    params: dict[str, ParamStats]
    lr_params: dict[str, ParamStats]
    auc_type1: float
    auc_type2: float
    auc_logistic: float
    e_y_mean: float
    e_y_sd: float
    lr_e_y_mean: float
    lr_e_y_sd: float
    labeled_train_mean: float
    replicates: list[dict] = field(default_factory=list)


def _truth_map(config: ScenarioConfig, spec: ModelSpec, solved_beta0=None) -> dict[str, float]:
    """The true value of each of ``spec``'s parameters, by name; zero tilt outside S6."""
    beta = config.beta_true if solved_beta0 is None else (solved_beta0, *config.beta_true[1:])
    truth = Theta(beta=beta, eta=config.eta_true,
                  psi=(config.psi_true or (0.0, 0.0)) if spec.extended else None,
                  eta_x=None if spec.z_model_covariate is None else config.odn_in_z_coeff)
    check_theta_spec(truth, spec)
    return dict(zip(spec.param_names, truth.pack().tolist()))


def _one_replicate(args):
    config, spec, rep, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    gen = generate(config, rng)
    truth = _truth_map(config, spec, gen.solved_beta0)

    train, test = gen.train_arrays, gen.test_arrays
    result = fit(train, spec)
    labeled = _labeled(train)
    row = {"rep": rep, "converged": bool(result.converged),
           "labeled_train": int(labeled.sum())}
    est = result.estimates()
    ses = dict(zip(result.free_names, result.se))
    row["params"] = {
        name: {
            "estimate": est[name],
            "se": float(ses[name]),
            "truth": truth[name],
            "covered": bool(abs(est[name] - truth[name]) <= 1.96 * ses[name]),
        }
        for name in result.free_names
    }
    if spec.extended:
        row["constraint_residuals"] = result.constraint_residuals
        row["infeasible_rejections"] = result.infeasible_rejections

    # comparator: plain logistic regression on the label-determined train subset
    lr_row = {}
    lr_e_y = math.nan
    auc_lr = math.nan
    if labeled.any():
        recent = train.case_masks()[0]
        try:
            lr = fit_weighted_logistic(train.x[labeled], recent[labeled].astype(int),
                                       train.w[labeled])
            for j, name in enumerate(spec.param_names[:spec.n_beta]):
                lr_row[name] = {
                    "estimate": float(lr.beta[j]),
                    "se": float(lr.se[j]),
                    "truth": truth[name],
                    "covered": bool(abs(lr.beta[j] - truth[name]) <= 1.96 * lr.se[j]),
                }
            auc_lr = auc(lr.predict(test.x), gen.y_test)
            lr_e_y = float(np.average(lr.predict(train.x), weights=train.w))
        except (ValueError, np.linalg.LinAlgError):
            pass
    row["lr_params"] = lr_row

    theta = result.theta_hat
    row["auc1"] = auc(pi_recent(test.x, theta.beta), gen.y_test)
    # Type-2 AUC on the latent-status subjects, scored from what they reported
    latent = gen.test_latent
    y_b = gen.y_test[latent]
    if 0 < y_b.sum() < y_b.size:
        t2 = _type2_vector(test.subset(latent), theta, spec)
        row["auc2"] = auc(t2, y_b)
    else:
        row["auc2"] = math.nan
    row["auc_lr"] = auc_lr
    row["e_y"] = recency_rate(train, theta, spec)
    row["lr_e_y"] = lr_e_y
    return row


def _aggregate(param_rows: list[dict], names: Sequence[str]) -> dict[str, ParamStats]:
    out = {}
    for name in names:
        vals = np.array([r[name]["estimate"] for r in param_rows if name in r])
        ses = np.array([r[name]["se"] for r in param_rows if name in r])
        cov = np.array([r[name]["covered"] for r in param_rows if name in r])
        if vals.size == 0:
            continue
        out[name] = ParamStats(
            truth=float(next(r[name]["truth"] for r in param_rows if name in r)),
            mean_estimate=float(vals.mean()),
            mean_se=float(ses.mean()),
            sd=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            coverage95=float(cov.mean()),
            n=int(vals.size),
        )
    return out


def run_replicates(config: ScenarioConfig, n_reps: int, spec: ModelSpec,
                   n_jobs: int | None = None) -> ReplicateSummary:
    """Generate/fit/evaluate ``n_reps`` independent replicates.

    Non-converged replicates are counted and excluded from every
    estimate aggregate.  ``n_jobs`` defaults to the RECENCY_THREADS
    environment variable (1 = sequential).
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if n_jobs is None:
        threads = os.environ.get("RECENCY_THREADS", "1")
        try:
            n_jobs = int(threads)
        except ValueError:
            raise ValueError(f"RECENCY_THREADS must be an integer, got {threads!r}") from None
    seeds = np.random.SeedSequence(config.seed).spawn(n_reps)
    tasks = [(config, spec, r, seeds[r]) for r in range(n_reps)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(_one_replicate, tasks, chunksize=max(1, n_reps // (4 * n_jobs))))
    else:
        rows = [_one_replicate(t) for t in tasks]

    ok = [r for r in rows if r["converged"]]
    params = _aggregate([r["params"] for r in ok], spec.free_names())
    lr_params = _aggregate([r["lr_params"] for r in ok if r["lr_params"]],
                           spec.param_names[:spec.n_beta])

    def nanmean(key):
        vals = np.array([r[key] for r in ok], dtype=float)
        vals = vals[np.isfinite(vals)]
        return float(vals.mean()) if vals.size else math.nan

    def nansd(key):
        vals = np.array([r[key] for r in ok], dtype=float)
        vals = vals[np.isfinite(vals)]
        return float(vals.std(ddof=1)) if vals.size > 1 else math.nan

    return ReplicateSummary(
        scenario=config.scenario,
        n_reps=n_reps,
        n_converged=len(ok),
        params=params,
        lr_params=lr_params,
        auc_type1=nanmean("auc1"),
        auc_type2=nanmean("auc2"),
        auc_logistic=nanmean("auc_lr"),
        e_y_mean=nanmean("e_y"),
        e_y_sd=nansd("e_y"),
        lr_e_y_mean=nanmean("lr_e_y"),
        lr_e_y_sd=nansd("lr_e_y"),
        labeled_train_mean=float(np.mean([r["labeled_train"] for r in rows])),
        replicates=rows,
    )


def summary_to_dict(summary: ReplicateSummary) -> dict:
    """JSON-ready view of a ReplicateSummary (replicate rows omitted)."""
    out = {f.name: getattr(summary, f.name) for f in fields(summary) if f.name != "replicates"}
    for key in ("params", "lr_params"):
        out[key] = {name: asdict(ps) for name, ps in out[key].items()}
    return out


def write_replicates_csv(path, summary: ReplicateSummary) -> None:
    """Long-format per-replicate rows: one line per (replicate, parameter)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "param", "estimate", "se", "covered",
                         "auc1", "auc2", "e_y", "converged"])
        for row in summary.replicates:
            for name, cell in row["params"].items():
                writer.writerow([
                    row["rep"], name, repr(cell["estimate"]), repr(cell["se"]),
                    int(cell["covered"]), repr(row["auc1"]), repr(row["auc2"]),
                    repr(row["e_y"]), int(row["converged"]),
                ])
