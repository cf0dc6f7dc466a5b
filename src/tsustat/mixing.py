"""Exact dependence coefficients of stationary finite-state Markov chains.

For a stationary chain the full-past/full-future suprema reduce to the single
time pair (X_0, X_n) by the Markov property, which turns the alpha, beta and
phi coefficients into finite computations on pi and P^n. The reduction is
cross-validated against literal partition/subset brute force in the tests.

``conditional_phi_coeff`` computes the phi coefficient of the forward law
after conditioning on finitely many past observations; the future block can
be enumerated literally at a finite horizon or collapsed exactly (two block
laws sharing the transition kernel differ in total variation exactly by the
total variation of their first coordinates).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .processes import FiniteMarkovChain

PROFILE_KINDS = ("alpha", "beta", "phi", "conditional_phi")


@dataclass
class MixingProfile:
    """Coefficient values of one kind over a lag grid."""

    kind: str
    lags: list[int]
    values: list[float]
    fitted_gamma: float | None = None
    conditioning: list[tuple[int, int]] | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind '{self.kind}'")
        if len(self.lags) != len(self.values):
            raise ValueError("lags and values must align")
        for v in self.values:
            if v < -1e-15 or v > 1.0 + 1e-12:
                raise ValueError(f"coefficient {v} outside [0, 1]")


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the L1 distance."""
    return 0.5 * float(np.abs(p - q).sum())


def beta_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """beta(n) = (1/2) sum_i pi_i sum_j |P^n(i,j) - pi_j|."""
    if n < 1:
        raise ValueError("lag must be >= 1")
    Pn = chain.power(n)
    pi = chain.stationary
    return 0.5 * float(pi @ np.abs(Pn - pi).sum(axis=1))


def phi_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """phi(n) = max over starting states of TV(P^n(i,.), pi)."""
    if n < 1:
        raise ValueError("lag must be >= 1")
    Pn = chain.power(n)
    pi = chain.stationary
    rows = np.where(pi > 0)[0]
    return float(max(_tv(Pn[i], pi) for i in rows))


def alpha_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """alpha(n) = sup over state subsets A, B of |P(X0 in A, Xn in B) - P(A)P(B)|.

    Enumerates A over all 2^s subsets; for fixed A the supremum over B is
    attained in closed form at {j : d_j > 0}, which equals half the L1 norm of
    the signed measure d (its total mass is zero).
    """
    if n < 1:
        raise ValueError("lag must be >= 1")
    s = chain.state_count
    if s > 16:
        raise ValueError("subset enumeration limited to 16 states")
    pi = chain.stationary
    joint = pi[:, None] * chain.power(n)  # P(X0 = i, Xn = j)
    best = 0.0
    for mask in range(1, 2 ** s - 1):
        sel = [(mask >> i) & 1 for i in range(s)]
        idx = np.array(sel, dtype=bool)
        d = joint[idx].sum(axis=0) - pi[idx].sum() * pi
        best = max(best, 0.5 * float(np.abs(d).sum()))
    return best


def _set_partitions(items: list[int]):
    """All partitions of a list, via recursive block placement."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def beta_coeff_bruteforce(chain: FiniteMarkovChain, n: int) -> float:
    """beta(n) via literal supremum over all pairs of state-set partitions."""
    if n < 1:
        raise ValueError("lag must be >= 1")
    s = chain.state_count
    if s > 5:
        raise ValueError("partition enumeration limited to 5 states")
    pi = chain.stationary
    joint = pi[:, None] * chain.power(n)
    parts = [
        [np.array(block, dtype=int) for block in partition]
        for partition in _set_partitions(list(range(s)))
    ]
    best = 0.0
    for pa in parts:
        for pb in parts:
            total = 0.0
            for A in pa:
                for B in pb:
                    total += abs(joint[np.ix_(A, B)].sum() - pi[A].sum() * pi[B].sum())
            best = max(best, 0.5 * total)
    return best


def _block_law(mu: np.ndarray, P: np.ndarray, horizon: int) -> np.ndarray:
    """Flattened law (or signed measure) of a horizon-length Markov block."""
    v = mu.copy()
    s = P.shape[0]
    for _ in range(horizon - 1):
        v = (v[:, None] * P[np.tile(np.arange(s), v.size // s)].reshape(v.shape + (s,))).reshape(-1)
    return v


def conditional_phi_coeff(
    chain: FiniteMarkovChain,
    conditioning: Sequence[tuple[int, int]],
    block_len: int,
    n: int,
    horizon: int | None = None,
) -> float:
    """phi coefficient of the forward law given observed past states.

    Conditioning fixes X_{u_1}=s_1, ..., X_{u_J}=s_J at strictly increasing
    times. The present block is the ``block_len`` coordinates after u_J; the
    future block starts ``n`` steps after the present block ends. The supremum
    over present events is attained at atoms (conditional probabilities are
    convex combinations of atom values) and the supremum over future events is
    a total variation distance.

    With ``horizon=None`` the future block is collapsed exactly: both block
    laws evolve with the same kernel, so their TV equals the TV of the first
    future coordinate at any horizon. An explicit horizon enumerates the
    s^horizon block atoms literally (used to validate the collapse).
    """
    if n < 1:
        raise ValueError("lag must be >= 1")
    if block_len < 1:
        raise ValueError("present block length must be >= 1")
    if not conditioning:
        raise ValueError("conditioning must fix at least one observation")
    times = [t for t, _ in conditioning]
    states = [int(s) for _, s in conditioning]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("conditioning times must be strictly increasing")
    s = chain.state_count
    if any(st < 0 or st >= s for st in states):
        raise ValueError("conditioning state out of range")

    # the conditioning event must have positive probability under the chain
    prob = chain.stationary[states[0]]
    for (t1, s1), (t2, s2) in zip(conditioning, conditioning[1:]):
        prob *= chain.power(t2 - t1)[s1, s2]
    if prob <= 0.0:
        raise ValueError("conditioning event has probability zero")

    P = chain.transition
    Pn = chain.power(n)
    start = P[states[-1]]  # law of the first present coordinate
    # law of the last present coordinate given the conditioning
    end_marginal = start @ chain.power(block_len - 1)
    mu_bar = end_marginal @ Pn  # future start marginal given conditioning only

    if horizon is not None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if s ** horizon > 2 ** 22:
            raise ValueError("future horizon too large to enumerate")

    best = 0.0
    for atom in itertools.product(range(s), repeat=block_len):
        w = start[atom[0]]
        for a, b in zip(atom, atom[1:]):
            w *= P[a, b]
        if w <= 0.0:
            continue
        mu_atom = Pn[atom[-1]]
        if horizon is None:
            best = max(best, _tv(mu_atom, mu_bar))
        else:
            diff = _block_law(mu_atom - mu_bar, P, horizon)
            best = max(best, 0.5 * float(np.abs(diff).sum()))
    return best


def fit_decay_rate(profile: MixingProfile | tuple[Sequence[int], Sequence[float]]) -> float:
    """Least-squares slope of -log(value) against lag.

    Requires at least three lags with strictly positive values; exact zeros
    must be dropped by the caller. Raises if the fitted slope is not positive
    (the coefficients do not decay).
    """
    if isinstance(profile, MixingProfile):
        lags, values = profile.lags, profile.values
    else:
        lags, values = profile
    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=float)
    if lags.size < 3:
        raise ValueError("decay fit needs at least 3 lags")
    if np.any(values <= 0.0):
        raise ValueError("decay fit needs strictly positive values; drop exact zeros first")
    slope, _ = np.polyfit(lags, -np.log(values), 1)
    if slope <= 1e-12:
        raise ValueError("mixing values do not decay")
    return float(slope)


_COEFF_FUNS = {"alpha": alpha_coeff, "beta": beta_coeff, "phi": phi_coeff}


def mixing_profile(chain: FiniteMarkovChain, kind: str, lags: Sequence[int],
                   fit: bool = False) -> MixingProfile:
    """Coefficient profile over a lag grid, optionally with a fitted decay rate
    (unset unless three values are positive and they decay)."""
    if kind not in _COEFF_FUNS:
        raise ValueError(f"profile builder supports {sorted(_COEFF_FUNS)}, got '{kind}'")
    fun = _COEFF_FUNS[kind]
    values = [fun(chain, int(n)) for n in lags]
    prof = MixingProfile(kind=kind, lags=[int(n) for n in lags], values=values)
    if fit:
        positive = [(n, v) for n, v in zip(prof.lags, prof.values) if v > 0.0]
        if len(positive) >= 3:
            try:  # an iid chain's values sit at rounding level and do not decay
                prof.fitted_gamma = fit_decay_rate(([n for n, _ in positive],
                                                    [v for _, v in positive]))
            except ValueError:
                pass
    return prof
