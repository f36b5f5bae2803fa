"""Domain types and elementary probability functions.

Everything downstream (likelihood, estimation, prediction, simulation)
composes the primitives defined here: the stable logistic function, the
recency probability ``pi_recent``, and ``SubjectArrays``, the one
in-memory data form, which checks itself when it is built.

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Theta",
    "ModelSpec",
    "SubjectArrays",
    "as_arrays",
    "logistic",
    "pi_recent",
    "initial_theta",
]

ETA_NAMES = ("eta00", "eta01", "eta10", "eta11")


def _is_number(value) -> bool:
    """A real number, Python's or numpy's, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
class ModelSpec:
    """Which parameters are estimated and how the model is wired.

    ``covariate_names`` is a list or tuple of distinct strings: each names
    one ``beta_<name>``.  ``fix_eta00`` / ``fix_eta10`` pin the
    corresponding intercepts of the test-result model (a finite number,
    stored as a float; None leaves them free).  ``p0_identically_one``
    (a bool) replaces the long-term positive-result probability with the
    constant 1, removing eta00 and eta01 from the model entirely.
    ``extended`` (a bool) turns on the density-ratio tilt with parameters
    (psi0, psi1).  ``z_model_covariate`` optionally names one covariate
    that enters both test-result expits with a single shared coefficient
    (eta_x).  A refused value raises a ValueError quoting the field name.
    """

    covariate_names: tuple[str, ...]
    fix_eta00: float | None = 7.0
    fix_eta10: float | None = -7.0
    p0_identically_one: bool = False
    extended: bool = False
    z_model_covariate: str | None = None

    def __post_init__(self):
        names = self.covariate_names
        if not isinstance(names, (list, tuple)) or not all(isinstance(c, str) for c in names):
            raise ValueError(f"'covariate_names' is {names!r}, not a list or tuple of strings")
        object.__setattr__(self, "covariate_names", tuple(names))
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"covariate(s) listed more than once: {', '.join(repeated)}")
        for key in ("fix_eta00", "fix_eta10"):
            value = getattr(self, key)
            if value is not None and not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"{key!r} is {value!r}, not a finite number or None")
            object.__setattr__(self, key, None if value is None else float(value))
        for key in ("p0_identically_one", "extended"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"{key!r} is {getattr(self, key)!r}, not True or False")
        if self.z_model_covariate is not None and self.z_model_covariate not in names:
            raise ValueError(f"'z_model_covariate' is {self.z_model_covariate!r}, "
                             f"not among covariates {self.covariate_names}")

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

    def fixed_mask(self) -> np.ndarray:
        """Boolean mask over the packed parameter vector; True = held fixed."""
        mask = np.zeros(len(self.param_names), dtype=bool)
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

    The packed vector is ``beta, eta [, eta_x] [, psi]``; which of its
    entries are free is the :class:`ModelSpec`'s to say.
    """

    beta: np.ndarray
    eta: np.ndarray
    psi: np.ndarray | None = None
    eta_x: float | None = None

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
        n = self.beta.size + 4 + (self.eta_x is not None) + 2 * (self.psi is not None)
        if packed.shape != (n,):
            raise ValueError(f"expected packed length {n}, got {packed.size}")
        nb = self.beta.size
        beta = packed[:nb]
        eta = packed[nb:nb + 4]
        off = nb + 4
        eta_x = None
        if self.eta_x is not None:
            eta_x = float(packed[off])
            off += 1
        psi = packed[off:off + 2] if self.psi is not None else None
        return Theta(beta=beta, eta=eta, psi=psi, eta_x=eta_x)

    def free_values(self, spec: ModelSpec) -> np.ndarray:
        """The entries ``spec`` leaves free, in packed order."""
        return self.pack()[~spec.fixed_mask()]

    def with_free(self, free: np.ndarray, spec: ModelSpec) -> "Theta":
        """This Theta with the entries ``spec`` leaves free set to ``free``."""
        packed = self.pack()
        packed[~spec.fixed_mask()] = np.asarray(free, dtype=float)
        return self.with_packed(packed)


def initial_theta(spec: ModelSpec) -> Theta:
    """Neutral parameter vector of ``spec``: zeros, except eta11 = -5.

    Fixed intercepts of the test-result model take their pinned values.
    The fits start from ``estimation._default_start``, which moves eta01
    (and a free eta00) off this point.
    """
    beta = np.zeros(spec.n_beta)
    pinned00 = spec.fix_eta00 is not None and not spec.p0_identically_one
    eta = np.array([spec.fix_eta00 if pinned00 else 0.0, 0.0,
                    spec.fix_eta10 if spec.fix_eta10 is not None else 0.0, -5.0])
    psi = np.zeros(2) if spec.extended else None
    eta_x = 0.0 if spec.z_model_covariate is not None else None
    return Theta(beta=beta, eta=eta, psi=psi, eta_x=eta_x)


def check_theta_spec(theta: Theta, spec: ModelSpec) -> None:
    if theta.beta.size != spec.n_beta:
        raise ValueError(
            f"beta has {theta.beta.size} entries but spec expects {spec.n_beta} "
            f"(intercept + {spec.n_covariates} covariates)"
        )
    if (theta.psi is not None) != spec.extended:
        raise ValueError("theta.psi is given exactly when the spec is extended")
    if (theta.eta_x is not None) != (spec.z_model_covariate is not None):
        raise ValueError("theta.eta_x is given exactly when the spec has a z_model_covariate")


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

    Row i is one survey participant: covariates ``x[i]`` on the analysis
    (standardized) scale, without an intercept column; ``s[i]``, the time
    in years between the last HIV test and the interview; ``z[i]``, that
    test's result (1 = positive); and ``w[i]``, the sampling weight.
    ``preprocess`` and ``generate`` produce it and every kernel reads it.

    Construction checks, in one vectorized pass that copies and coerces
    nothing:

    - every field is a numpy array;
    - x is 2-d (n, c) and finite; c = 0 is allowed;
    - s and w are 1-d of length n, finite and positive;
    - z is 1-d of length n, holds only 0 and 1, and has an integer dtype;
    - n >= 1 ("empty dataset").

    A failed check raises one ValueError (a TypeError for a field that is
    not an array) naming the field and, for a bad value, the first bad row
    and its value.
    """

    x: np.ndarray   # (n, c) covariates
    s: np.ndarray   # (n,)
    z: np.ndarray   # (n,) int
    w: np.ndarray   # (n,)

    def __post_init__(self):
        for name in ("x", "s", "z", "w"):
            col = getattr(self, name)
            if not isinstance(col, np.ndarray):
                raise TypeError(f"{name} must be a numpy array, got {type(col).__name__}")
            if col.ndim != (2 if name == "x" else 1):
                shape = "2-d (n, c)" if name == "x" else "1-d"
                raise ValueError(f"{name} must be {shape}, got shape {col.shape}")
        n = self.s.size
        if n == 0:
            raise ValueError("empty dataset")
        for name in ("x", "z", "w"):
            rows = len(getattr(self, name))
            if rows != n:
                short = name if rows < n else "s"
                raise ValueError(f"{name} has {rows} rows but s has {n}: "
                                 f"row {min(rows, n)} has no {short}")
        _first_bad_row("x", np.isfinite(self.x).all(axis=1), self.x, "finite")
        _first_bad_row("s", np.isfinite(self.s) & (self.s > 0), self.s, "finite and positive")
        _first_bad_row("z", (self.z == 0) | (self.z == 1), self.z, "0 or 1")
        if self.z.dtype.kind not in "iu":
            raise ValueError(f"z must have an integer dtype, got {self.z.dtype}")
        _first_bad_row("w", np.isfinite(self.w) & (self.w > 0), self.w, "finite and positive")

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


def _first_bad_row(name: str, ok: np.ndarray, col: np.ndarray, rule: str) -> None:
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name} must be {rule}, got {col[i].tolist()} at row {i}")


def as_arrays(data) -> SubjectArrays:
    """The API-edge type check: ``data`` itself, which must be a SubjectArrays."""
    if not isinstance(data, SubjectArrays):
        raise TypeError(f"expected SubjectArrays, got {type(data).__name__}")
    return data
