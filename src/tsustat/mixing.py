"""Exact dependence coefficients of stationary finite-state Markov chains.

For a stationary chain the full-past/full-future suprema reduce to the single
time pair (X_0, X_n) by the Markov property, which turns the alpha, beta and
phi coefficients into finite computations on pi and P^n. The tests check
the reduction against a literal supremum over partitions.

``conditional_phi_coeff`` computes the phi coefficient of the forward law
after conditioning on finitely many past observations, with the future block
collapsed exactly: two block laws sharing the transition kernel differ in
total variation exactly by the total variation of their first coordinates.

``mixing_profile`` returns a lag-grid profile with its fitted decay rate as
the plain dict that the ``mixing-profile`` data block holds.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .processes import FiniteMarkovChain

ALPHA_MAX_STATES = 16  # alpha takes one product over all 2^s state subsets


def beta_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """beta(n) = (1/2) sum_i pi_i sum_j |P^n(i,j) - pi_j|."""
    if n < 1:
        raise ValueError("lag must be >= 1")
    Pn = chain.power(n)
    pi = chain.stationary
    return 0.5 * float(pi @ np.abs(Pn - pi).sum(axis=1))


def phi_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """phi(n) = max over starting states of TV(P^n(i,.), pi), the total
    variation being half the L1 distance."""
    if n < 1:
        raise ValueError("lag must be >= 1")
    Pn = chain.power(n)
    pi = chain.stationary
    return 0.5 * float(np.abs(Pn[pi > 0] - pi).sum(axis=1).max())


def alpha_coeff(chain: FiniteMarkovChain, n: int) -> float:
    """alpha(n) = sup over state subsets A, B of |P(X0 in A, Xn in B) - P(A)P(B)|.

    For fixed A the supremum over B is attained in closed form at
    {j : d_j > 0}, which equals half the L1 norm of the signed measure
    d = P(X0 in A, Xn = .) - P(A) pi (its total mass is zero). Each proper
    subset A is a 0/1 row, so every d is a row of one product.
    """
    if n < 1:
        raise ValueError("lag must be >= 1")
    s = chain.state_count
    if s > ALPHA_MAX_STATES:
        raise ValueError(f"subset enumeration limited to {ALPHA_MAX_STATES} states")
    pi = chain.stationary
    joint = pi[:, None] * chain.power(n)  # P(X0 = i, Xn = j)
    subsets = ((np.arange(1, 2 ** s - 1)[:, None] >> np.arange(s)) & 1).astype(float)
    d = subsets @ joint - (subsets @ pi)[:, None] * pi
    return 0.5 * float(np.abs(d).sum(axis=1).max())


def check_conditioning(chain: FiniteMarkovChain, conditioning: Sequence[tuple[int, int]],
                       block_len: int) -> None:
    """Raise ValueError unless ``conditional_phi_coeff`` can condition ``chain``
    on ``conditioning`` with a present block of ``block_len`` coordinates."""
    if block_len < 1:
        raise ValueError("present block length must be >= 1")
    if not conditioning:
        raise ValueError("conditioning must fix at least one observation")
    times = [t for t, _ in conditioning]
    states = [int(s) for _, s in conditioning]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("conditioning times must be strictly increasing")
    if any(st < 0 or st >= chain.state_count for st in states):
        raise ValueError("conditioning state out of range")
    # the conditioning event must have positive probability under the chain
    prob = chain.stationary[states[0]]
    for (t1, s1), (t2, s2) in zip(conditioning, conditioning[1:]):
        prob *= chain.power(t2 - t1)[s1, s2]
    if prob <= 0.0:
        raise ValueError("conditioning event has probability zero")


def conditional_phi_coeff(
    chain: FiniteMarkovChain,
    conditioning: Sequence[tuple[int, int]],
    block_len: int,
    n: int,
) -> float:
    """phi coefficient of the forward law given observed past states.

    Conditioning fixes X_{u_1}=s_1, ..., X_{u_J}=s_J at strictly increasing
    times. The present block is the ``block_len`` coordinates after u_J; the
    future block starts ``n`` steps after the present block ends. The supremum
    over present events is attained at atoms (conditional probabilities are
    convex combinations of atom values) and the supremum over future events is
    a total variation distance. Both future block laws evolve with the same
    kernel, so that distance is the TV of the first future coordinate, which
    depends on an atom only through its last state: the supremum runs over
    the states the last present coordinate takes with positive probability.
    """
    if n < 1:
        raise ValueError("lag must be >= 1")
    check_conditioning(chain, conditioning, block_len)
    Pn = chain.power(n)
    start = chain.transition[int(conditioning[-1][1])]  # law of the first present coordinate
    # law of the last present coordinate given the conditioning
    end_marginal = start @ chain.power(block_len - 1)
    mu_bar = end_marginal @ Pn  # future start marginal given conditioning only
    return 0.5 * float(np.abs(Pn[end_marginal > 0] - mu_bar).sum(axis=1).max())


def fit_decay_rate(profile: tuple[Sequence[int], Sequence[float]]) -> float:
    """Least-squares slope of -log(value) against lag, from (lags, values).

    Requires at least three lags with strictly positive values; exact zeros
    must be dropped by the caller. Raises if the fitted slope is not positive
    (the coefficients do not decay) or the fit overflows.
    """
    lags, values = profile
    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=float)
    if lags.size < 3:
        raise ValueError("decay fit needs at least 3 lags")
    if np.any(values <= 0.0):
        raise ValueError("decay fit needs strictly positive values; drop exact zeros first")
    try:  # past lag 1e154 the squares in the fit's column norm overflow
        with np.errstate(over="raise"):
            slope, _ = np.polyfit(lags, -np.log(values), 1)
    except FloatingPointError as exc:
        raise ValueError("decay fit overflows at these lags") from exc
    if slope <= 1e-12:
        raise ValueError("mixing values do not decay")
    return float(slope)


_COEFF_FUNS = {"alpha": alpha_coeff, "beta": beta_coeff, "phi": phi_coeff}


def mixing_profile(chain: FiniteMarkovChain, kind: str, lags: Sequence[int]) -> dict:
    """Coefficient profile over a lag grid as ``{kind, lags, values,
    fitted_gamma, conditioning}``: the decay rate None unless three values
    are positive and decay, ``conditioning`` None (conditional phi sets it)."""
    if kind not in _COEFF_FUNS:
        raise ValueError(f"profile builder supports {sorted(_COEFF_FUNS)}, got '{kind}'")
    lags = [int(n) for n in lags]
    values = [_COEFF_FUNS[kind](chain, n) for n in lags]
    positive = [(n, v) for n, v in zip(lags, values) if v > 0.0]
    try:  # three positive values that decay; an iid chain's sit at rounding level
        fitted = fit_decay_rate(([n for n, _ in positive], [v for _, v in positive]))
    except ValueError:
        fitted = None
    return {"kind": kind, "lags": lags, "values": values, "fitted_gamma": fitted,
            "conditioning": None}
