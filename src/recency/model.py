"""Domain types and elementary probability functions.

Everything downstream (likelihood, estimation, prediction, simulation)
composes the primitives defined here: the stable logistic function, the
recency probability ``pi_recent``, and the tri-state label derived from
testing history.

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "RecencyLabel",
    "Subject",
    "Theta",
    "ModelSpec",
    "SubjectArrays",
    "as_arrays",
    "logistic",
    "pi_recent",
    "derive_label",
    "initial_theta",
]

ETA_NAMES = ("eta00", "eta01", "eta10", "eta11")


class RecencyLabel(enum.Enum):
    """Infection-recency status derivable from testing history alone."""

    RECENT = "recent"
    LONG_TERM = "longterm"
    UNKNOWN = "unknown"


def logistic(x):
    """Numerically stable expit, 1 / (1 + exp(-x)).

    Computed with a sign split so that neither branch can overflow;
    saturates to exactly 0.0 / 1.0 in float64 for |x| beyond ~745.
    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Subject:
    """One survey participant.

    covariates are on the analysis (standardized) scale and do not
    include an intercept column; ``s`` is the time in years between the
    last HIV test and the survey interview; ``z`` is the last test
    result (1 = positive); ``w`` is the sampling weight.
    """

    covariates: np.ndarray
    s: float
    z: int
    w: float = 1.0

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim != 1:
            raise ValueError("covariates must be a 1-d vector")
        object.__setattr__(self, "covariates", cov)
        if self.z not in (0, 1):
            raise ValueError(f"z must be 0 or 1, got {self.z}")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "z", int(self.z))
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"s must be finite and positive, got {self.s}")
        if not (math.isfinite(self.w) and self.w > 0):
            raise ValueError(f"weight must be finite and positive, got {self.w}")

    @property
    def label(self) -> RecencyLabel:
        return derive_label(self.s, self.z)


def derive_label(s: float, z: int) -> RecencyLabel:
    """Tri-state recency label from (time since last test, test result).

    A negative test within one year pins the infection as recent; a
    positive test over one year ago pins it as long-term.  The boundary
    s = 1 counts as "within one year".
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if z not in (0, 1):
        raise ValueError(f"z must be 0 or 1, got {z}")
    if s <= 1.0 and z == 0:
        return RecencyLabel.RECENT
    if s > 1.0 and z == 1:
        return RecencyLabel.LONG_TERM
    return RecencyLabel.UNKNOWN


@dataclass(frozen=True)
class ModelSpec:
    """Which parameters are estimated and how the model is wired.

    ``fix_eta00`` / ``fix_eta10`` pin the corresponding intercepts of the
    test-result model (None leaves them free).  ``p0_identically_one``
    replaces the long-term positive-result probability with the constant
    1, removing eta00 and eta01 from the model entirely.  ``extended``
    turns on the density-ratio tilt with parameters (psi0, psi1).
    ``z_model_covariate`` optionally names one covariate that enters both
    test-result expits with a single shared coefficient (eta_x).
    """

    covariate_names: tuple[str, ...]
    fix_eta00: float | None = 7.0
    fix_eta10: float | None = -7.0
    p0_identically_one: bool = False
    extended: bool = False
    z_model_covariate: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        if self.z_model_covariate is not None and self.z_model_covariate not in self.covariate_names:
            raise ValueError(
                f"z_model_covariate {self.z_model_covariate!r} not among covariates {self.covariate_names}"
            )

    @property
    def n_covariates(self) -> int:
        return len(self.covariate_names)

    @property
    def n_beta(self) -> int:
        return self.n_covariates + 1

    @property
    def param_names(self) -> tuple[str, ...]:
        names = ["beta0"] + [f"beta_{c}" for c in self.covariate_names]
        names += list(ETA_NAMES)
        if self.z_model_covariate is not None:
            names.append("eta_x")
        if self.extended:
            names += ["psi0", "psi1"]
        return tuple(names)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def fixed_mask(self) -> np.ndarray:
        """Boolean mask over the packed parameter vector; True = held fixed."""
        mask = np.zeros(self.n_params, dtype=bool)
        off = self.n_beta
        if self.p0_identically_one or self.fix_eta00 is not None:
            mask[off + 0] = True
        if self.p0_identically_one:
            mask[off + 1] = True
        if self.fix_eta10 is not None:
            mask[off + 2] = True
        return mask

    def free_names(self) -> tuple[str, ...]:
        mask = self.fixed_mask()
        return tuple(n for n, m in zip(self.param_names, mask) if not m)

    @property
    def z_model_covariate_index(self) -> int | None:
        if self.z_model_covariate is None:
            return None
        return self.covariate_names.index(self.z_model_covariate)


@dataclass(frozen=True)
class Theta:
    """Parameter bundle: beta (intercept in slot 0), eta, optional psi.

    ``fixed_mask`` marks packed-vector entries held constant during
    estimation; it must cover the full packed length
    ``len(beta) + 4 [+ eta_x] [+ psi]`` and leave at least one entry free.
    """

    beta: np.ndarray
    eta: np.ndarray
    psi: np.ndarray | None = None
    eta_x: float | None = None
    fixed_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a 1-d vector with the intercept in slot 0")
        if eta.shape != (4,):
            raise ValueError(f"eta must have 4 entries (eta00, eta01, eta10, eta11), got shape {eta.shape}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta", eta)
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=float)
            if psi.shape != (2,):
                raise ValueError(f"psi must have 2 entries, got shape {psi.shape}")
            object.__setattr__(self, "psi", psi)
        mask = self.fixed_mask
        if mask is None:
            mask = np.zeros(self.n_params, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_params,):
            raise ValueError(
                f"fixed_mask length {mask.size} does not match parameter count {self.n_params}"
            )
        if mask.all():
            raise ValueError("at least one parameter must be free")
        object.__setattr__(self, "fixed_mask", mask)

    @property
    def n_params(self) -> int:
        n = self.beta.size + 4
        if self.eta_x is not None:
            n += 1
        if self.psi is not None:
            n += 2
        return n

    def pack(self) -> np.ndarray:
        parts = [self.beta, self.eta]
        if self.eta_x is not None:
            parts.append(np.array([self.eta_x]))
        if self.psi is not None:
            parts.append(self.psi)
        return np.concatenate(parts)

    def with_packed(self, packed: np.ndarray) -> "Theta":
        """Rebuild a Theta of the same shape from a packed vector."""
        packed = np.asarray(packed, dtype=float)
        if packed.shape != (self.n_params,):
            raise ValueError(f"expected packed length {self.n_params}, got {packed.size}")
        nb = self.beta.size
        beta = packed[:nb]
        eta = packed[nb:nb + 4]
        off = nb + 4
        eta_x = None
        if self.eta_x is not None:
            eta_x = float(packed[off])
            off += 1
        psi = packed[off:off + 2] if self.psi is not None else None
        return Theta(beta=beta, eta=eta, psi=psi, eta_x=eta_x, fixed_mask=self.fixed_mask)

    def free_values(self) -> np.ndarray:
        return self.pack()[~self.fixed_mask]

    def with_free(self, free: np.ndarray) -> "Theta":
        packed = self.pack()
        packed[~self.fixed_mask] = np.asarray(free, dtype=float)
        return self.with_packed(packed)


def initial_theta(spec: ModelSpec) -> Theta:
    """Neutral parameter vector of ``spec``: zeros, except eta11 = -5.

    Fixed intercepts of the test-result model take their pinned values.
    The fits start from ``estimation._default_start``, which moves eta01
    (and a free eta00) off this point.
    """
    beta = np.zeros(spec.n_beta)
    eta = np.array([
        spec.fix_eta00 if spec.fix_eta00 is not None else 0.0,
        0.0,
        spec.fix_eta10 if spec.fix_eta10 is not None else 0.0,
        -5.0,
    ])
    if spec.p0_identically_one:
        eta[0] = 0.0
        eta[1] = 0.0
    psi = np.zeros(2) if spec.extended else None
    eta_x = 0.0 if spec.z_model_covariate is not None else None
    return Theta(beta=beta, eta=eta, psi=psi, eta_x=eta_x, fixed_mask=spec.fixed_mask())


def check_theta_spec(theta: Theta, spec: ModelSpec) -> None:
    if theta.beta.size != spec.n_beta:
        raise ValueError(
            f"beta has {theta.beta.size} entries but spec expects {spec.n_beta} "
            f"(intercept + {spec.n_covariates} covariates)"
        )
    if spec.extended and theta.psi is None:
        raise ValueError("extended spec requires theta.psi")
    if spec.z_model_covariate is not None and theta.eta_x is None:
        raise ValueError("spec.z_model_covariate requires theta.eta_x")


def pi_recent(covariates, beta) -> float:
    """P(recent | covariates) under the logistic recency model.

    ``beta`` has the intercept in slot 0 followed by one coefficient per
    covariate.
    """
    x = np.asarray(covariates, dtype=float)
    b = np.asarray(beta, dtype=float)
    if b.size != x.shape[-1] + 1:
        raise ValueError(f"beta length {b.size} does not match {x.shape[-1]} covariates + intercept")
    return logistic(b[0] + x @ b[1:])


@dataclass(frozen=True)
class SubjectArrays:
    """A dataset as columns: the package's one in-memory data form.

    ``preprocess`` and ``generate`` produce it and every kernel reads it;
    ``as_arrays`` converts a Subject sequence at the public API edge.
    """

    x: np.ndarray   # (n, c) covariates
    s: np.ndarray   # (n,)
    z: np.ndarray   # (n,) int
    w: np.ndarray   # (n,)

    @property
    def n(self) -> int:
        return self.s.size

    def __len__(self) -> int:
        return self.n

    def subset(self, mask) -> "SubjectArrays":
        """The subjects selected by a boolean mask or an index array, in order."""
        return SubjectArrays(x=self.x[mask], s=self.s[mask], z=self.z[mask], w=self.w[mask])

    def case_masks(self):
        """Boolean masks for the four (s, z) cells, in case order I-IV."""
        inside = self.s <= 1.0
        pos = self.z == 1
        return (
            inside & ~pos,   # I: recent window, negative result -> recent
            ~inside & pos,   # II: old test, positive result -> long-term
            inside & pos,    # III: unknown
            ~inside & ~pos,  # IV: unknown
        )


def as_arrays(data) -> SubjectArrays:
    """Normalize a Subject sequence (or pass through SubjectArrays)."""
    if isinstance(data, SubjectArrays):
        return data
    subjects: Sequence[Subject] = list(data)
    if not subjects:
        raise ValueError("empty dataset")
    dims = {sub.covariates.size for sub in subjects}
    if len(dims) != 1:
        raise ValueError(f"covariate vectors differ in length across subjects: {sorted(dims)}")
    x = np.stack([sub.covariates for sub in subjects])
    s = np.array([sub.s for sub in subjects])
    z = np.array([sub.z for sub in subjects], dtype=int)
    w = np.array([sub.w for sub in subjects])
    return SubjectArrays(x=x, s=s, z=z, w=w)
