"""Tail-bound and log-MGF envelope families with pluggable constants.

Every bound is a parametric family: the multiplicative constants are runtime
parameters defaulting to 1, and ``calibrate_constants`` fits the tightest
dominating exponent constant to empirical tail curves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class BernsteinParams:
    """Envelope parameters: log E exp(eta Z) <= (sigma eta)^2 / (1 - kappa eta)."""

    sigma: float
    kappa: float

    def __post_init__(self):
        if self.sigma < 0 or self.kappa < 0:
            raise ValueError("sigma and kappa must be non-negative")

    @property
    def eta_limit(self) -> float:
        return math.inf if self.kappa == 0 else 1.0 / self.kappa


def bernstein_envelope(params: BernsteinParams, eta: float) -> float:
    """The envelope value (sigma eta)^2 / (1 - kappa eta) for admissible eta."""
    if eta < 0 or eta >= params.eta_limit:
        raise ValueError(f"eta={eta} outside [0, {params.eta_limit})")
    return (params.sigma * eta) ** 2 / (1.0 - params.kappa * eta)


def combine_bernstein_params(params: Sequence[BernsteinParams]) -> BernsteinParams:
    """Envelope of a sum of independent variables: component-wise parameter sums."""
    params = list(params)
    if not params:
        raise ValueError("cannot combine an empty parameter list")
    return BernsteinParams(
        sigma=math.fsum(p.sigma for p in params),
        kappa=math.fsum(p.kappa for p in params),
    )


@dataclass(frozen=True)
class BoundConstants:
    """Free constants of the bound families (all default to 1)."""

    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    c6: float = 1.0
    c7: float = 1.0
    gamma: float = 1.0
    r: int = 2

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "c3", "c5", "c6", "c7", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.c4 < 0:
            raise ValueError("c4 must be non-negative (zero disables the offset)")
        if self.r < 1:
            raise ValueError("r must be >= 1")

    def to_dict(self) -> dict:
        return {name: getattr(self, name)
                for name in ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "gamma", "r")}


def log_factor(T: int) -> float:
    """log(T) * log(log(4T)); needs T >= 2 so both logs are positive."""
    if T < 2:
        raise ValueError("log factor needs T >= 2")
    return math.log(T) * math.log(math.log(4.0 * T))


def hoeffding_bound(x: float, T: int, M: float, c0: float = 1.0) -> float:
    """Independent-data tail bound 2 exp(-c0 T x^2 / (M^2 + M x))."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if T < 1 or M <= 0 or c0 <= 0:
        raise ValueError("need T >= 1, M > 0, c0 > 0")
    return 2.0 * math.exp(-c0 * T * x * x / (M * M + M * x))


def mixing_sum_logmgf_bound(eta: float, T: int, M: float,
                           c1: float = 1.0, c2: float = 1.0) -> float:
    """Mixing-sum log-MGF bound c2 eta^2 T M^2 / (1 - c1 eta M logfac)."""
    if M <= 0 or c1 <= 0 or c2 <= 0:
        raise ValueError("need M > 0 and positive constants")
    lf = log_factor(T)
    limit = 1.0 / (c1 * M * lf)
    if not 0 < eta < limit:
        raise ValueError(f"eta={eta} outside the admissible interval (0, {limit})")
    return c2 * eta * eta * T * M * M / (1.0 - c1 * eta * M * lf)


def mixing_sum_tail_bound(x: float, T: int, M: float, c3: float = 1.0) -> float:
    """Mixing-sum tail bound 2 exp(-c3 x^2 / (T M^2 + M x logfac))."""
    if x < 0:
        raise ValueError("x must be >= 0")
    lf = log_factor(T)
    return 2.0 * math.exp(-c3 * x * x / (T * M * M + M * x * lf))


def ustat_tail_bound(x: float, T: int, M: float, c5: float = 1.0) -> float:
    """U-statistic tail bound 2 exp(-c5 x^2 T / (M^2 + M x logfac))."""
    if x < 0:
        raise ValueError("x must be >= 0")
    lf = log_factor(T)
    return 2.0 * math.exp(-c5 * x * x * T / (M * M + M * x * lf))


def bias_offset(T: int, M: float, c4: float = 1.0) -> float:
    """Bias offset c4 M / sqrt(T) added to the deviation threshold."""
    if T < 1 or M <= 0 or c4 < 0:
        raise ValueError("need T >= 1, M > 0, c4 >= 0")
    return c4 * M / math.sqrt(T)


def variance_logmgf_bound(eta: float, T: int, M: float,
                          c6: float = 1.0, c7: float = 1.0) -> float:
    """Centered-U log-MGF bound c7 eta^2 M^2 / T / (1 - c6 eta M logfac / T).

    Exposed exactly as stated: the T^-1 inside the constraint makes the
    admissible eta range grow with T.
    """
    if M <= 0 or c6 <= 0 or c7 <= 0:
        raise ValueError("need M > 0 and positive constants")
    lf = log_factor(T)
    limit = T / (c6 * M * lf)
    if not 0 < eta < limit:
        raise ValueError(f"eta={eta} outside the admissible interval (0, {limit})")
    return c7 * eta * eta * M * M / T / (1.0 - c6 * eta * M * lf / T)


def empirical_log_mgf(samples: Sequence[float], eta: float) -> float:
    """log of the sample mean of exp(eta * sample), computed with a max shift."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical log-MGF needs samples")
    if abs(eta) * float(np.max(np.abs(arr))) > 700.0:
        raise ValueError("eta * max|sample| exceeds the overflow guard of 700")
    shifted = eta * arr
    m = float(shifted.max())
    return m + math.log(float(np.mean(np.exp(shifted - m))))


class TailPoint(NamedTuple):
    """One empirical tail observation: P(|U - theta| >= x) estimated at (x, T)."""

    x: float
    T: int
    M: float
    probability: float


@dataclass
class CalibrationResult:
    constants: BoundConstants
    binding_point: TailPoint | None
    capped: bool
    used_points: int
    slack: float  # relative gap from the binding candidate to the runner-up

    def dominates(self, point: TailPoint, tol: float = 0.0) -> bool:
        x_eff = max(point.x - bias_offset(point.T, point.M, self.constants.c4), 0.0)
        return ustat_tail_bound(x_eff, point.T, point.M, self.constants.c5) >= point.probability - tol

    def to_dict(self) -> dict:
        """JSON form; an infinite slack (one constraining point) becomes None."""
        return {"constants": self.constants.to_dict(), "capped": self.capped,
                "used_points": self.used_points,
                "slack": None if math.isinf(self.slack) else self.slack,
                "binding_point": None if self.binding_point is None
                                 else self.binding_point._asdict()}


def calibrate_constants(points: Sequence[TailPoint | tuple], c4: float = 1.0,
                        cap: float = 1e6, base: BoundConstants | None = None) -> CalibrationResult:
    """Tightest exponent constant whose bound dominates every supplied point.

    For each point with positive empirical probability and positive effective
    deviation x - c4 M / sqrt(T), the largest admissible exponent constant is
    log(2/p) / g(x', T); the calibrated value is the minimum over points. If
    no point constrains the constant (all-zero tails), returns the cap with a
    flag.
    """
    pts = [p if isinstance(p, TailPoint) else TailPoint(*p) for p in points]
    if len(pts) < 5:
        raise ValueError("calibration needs at least 5 curve points")
    if len({p.T for p in pts}) < 2:
        raise ValueError("calibration needs points from at least 2 values of T")
    base = base or BoundConstants()

    candidates: list[tuple[float, TailPoint]] = []
    for p in pts:
        if p.probability <= 0.0:
            continue
        x_eff = p.x - bias_offset(p.T, p.M, c4)
        if x_eff <= 0.0:
            continue
        g = x_eff * x_eff * p.T / (p.M * p.M + p.M * x_eff * log_factor(p.T))
        candidates.append((math.log(2.0 / p.probability) / g, p))

    if not candidates:
        constants = replace(base, c4=c4, c5=cap)
        return CalibrationResult(constants=constants, binding_point=None, capped=True,
                                 used_points=0, slack=math.inf)
    candidates.sort(key=lambda cp: cp[0])
    c5, binding = candidates[0]
    c5 = min(c5, cap)
    slack = math.inf if len(candidates) == 1 else candidates[1][0] / candidates[0][0] - 1.0
    constants = replace(base, c4=c4, c5=c5)
    return CalibrationResult(constants=constants, binding_point=binding,
                             capped=c5 >= cap, used_points=len(candidates), slack=slack)
