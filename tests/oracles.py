"""Literal enumeration oracles for the paper's proof devices.

Each one computes by brute force what the library computes in closed form:
Hoeffding's permutation decoupling of a U-statistic, the beta coefficient as
a supremum over pairs of partitions, and the conditional phi coefficient
with the future block enumerated atom by atom. One exact law serves the
tail harness: the null law of Kendall's tau, by inversion counts.
"""
import itertools
import math

import numpy as np


def hoeffding_decoupling_average(path, kernel) -> float:
    """Block mean of the kernel averaged over all T! orderings of the path.

    Each permutation of 0..T-1 is split into floor(T/r) consecutive blocks of
    r indices and the kernel values over those blocks are averaged; over all
    permutations this equals the U-statistic identically.
    """
    points = list(np.asarray(path))
    T, r = len(points), kernel.order
    assert r <= T <= 8, "full permutation enumeration needs r <= T <= 8"
    nblocks = T // r
    cache = {}
    per_perm = []
    for perm in itertools.permutations(range(T)):
        total = 0.0
        for b in range(nblocks):
            key = tuple(sorted(perm[b * r:(b + 1) * r]))
            if key not in cache:
                cache[key] = float(kernel.fn(*(points[t] for t in key)))
            total += cache[key]
        per_perm.append(total / nblocks)
    return math.fsum(per_perm) / len(per_perm)


def _set_partitions(items):
    """All partitions of a list, via recursive block placement."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def beta_coeff_bruteforce(chain, n: int) -> float:
    """beta(n) via the literal supremum over all pairs of state-set partitions."""
    pi = chain.stationary
    joint = pi[:, None] * chain.power(n)
    parts = [[np.array(block) for block in partition]
             for partition in _set_partitions(list(range(chain.state_count)))]
    best = 0.0
    for pa in parts:
        for pb in parts:
            total = sum(abs(joint[np.ix_(A, B)].sum() - pi[A].sum() * pi[B].sum())
                        for A in pa for B in pb)
            best = max(best, 0.5 * total)
    return best


def _block_law(mu: np.ndarray, P: np.ndarray, horizon: int) -> np.ndarray:
    """Flattened law (or signed measure) of a horizon-length Markov block."""
    v = mu.copy()
    s = P.shape[0]
    for _ in range(horizon - 1):
        v = (v[:, None] * P[np.tile(np.arange(s), v.size // s)].reshape(v.shape + (s,))).reshape(-1)
    return v


def conditional_phi_enumerated(chain, conditioning, block_len: int, n: int,
                               horizon: int) -> float:
    """Conditional phi with the s^horizon atoms of the future block enumerated.

    Each present atom of positive probability sets the law of the future
    block; the coefficient is the largest total variation between that law
    and the law given the conditioning alone.
    """
    s, P, Pn = chain.state_count, chain.transition, chain.power(n)
    start = P[conditioning[-1][1]]  # law of the first present coordinate
    mu_bar = start @ chain.power(block_len - 1) @ Pn
    best = 0.0
    for atom in itertools.product(range(s), repeat=block_len):
        w = start[atom[0]] * math.prod(P[a, b] for a, b in zip(atom, atom[1:]))
        if w > 0.0:
            diff = _block_law(Pn[atom[-1]] - mu_bar, P, horizon)
            best = max(best, 0.5 * float(np.abs(diff).sum()))
    return best


def mahonian_law(T: int) -> np.ndarray:
    """P(k inversions), k = 0..C(T, 2), for a uniform random permutation of T items.

    The law's generating function is the product over j = 1..T of
    (1 + q + ... + q^(j-1)) / j: placing item j adds 0..j-1 inversions, each
    equally likely. Each factor is one convolution with a width-j box, read
    as a difference of prefix sums, in float64; T is kept <= 500, where the
    prefix sums' rounding stays far below any Monte Carlo error.
    """
    assert 1 <= T <= 500, "the float64 law is built for T <= 500"
    law = np.ones(1)
    for j in range(2, T + 1):
        # coefficient k of the product is the sum of law[k-j+1 .. k]
        prefix = np.cumsum(np.concatenate([np.zeros(j), law, np.zeros(j - 1)]))
        law = (prefix[j:] - prefix[:-j]) / j
    return law
