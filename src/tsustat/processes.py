"""Strictly stationary process generators and finite-state Markov chains.

Process kinds: iid normals, AR(1), m-dependent moving windows over an iid
base, finite-state Markov chains started from the stationary distribution,
and a Gaussian-copula vector process (latent vector AR(1) pushed through the
standard normal CDF, giving uniform marginals and exponential mixing).

The copula generator is split in two: ``latent_batch`` draws the latent
Gaussian paths and ``uniform_marginals`` applies the CDF. Rank statistics
read the latent paths, since a strictly increasing marginal map leaves
ranks unchanged. Only the uniform outputs need scipy, which
``uniform_marginals`` imports on first use; nothing else imports it.

All generation is deterministic given (spec, seed): replication i draws
from a counter-based Philox stream keyed by SeedSequence(seed,
spawn_key=(i,)), so parallel replications reproduce independently of
scheduling. A block computes its streams' keys in one vectorized pass of
SeedSequence's hash and reseeds one Philox per row. Every generator fills one preallocated (R, ...) buffer, one
replication's stream per row, and reads the stream in time order, so a path
of length T is the first T steps of the same replication's longer path. The
experiments draw each replication once, at the largest T of their grid, and
read every shorter T from its prefix. ``map_replication_blocks`` is their
one replication loop, in blocks of at most ``BLOCK_VALUES`` path values, and
the one place that starts a worker pool, through ``_open_pool``;
``concurrent.futures`` is imported only when a pool opens.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10

PROCESS_KINDS = ("iid", "ar1", "m_dependent", "markov_chain", "gaussian_copula_vector")


@dataclass
class FiniteMarkovChain:
    """Row-stochastic transition matrix with its stationary distribution.

    Matrix powers are memoized.
    """

    transition: np.ndarray
    stationary: np.ndarray | None = None
    _powers: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ValueError(f"transition matrix must be square with >= 2 states, got {P.shape}")
        if not np.isfinite(P).all():  # NaN passes the sign and row-sum checks below
            raise ValueError("transition matrix has non-finite entries")
        if np.any(P < 0):
            raise ValueError("transition matrix has negative entries")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("transition matrix rows must sum to 1 within 1e-12")
        self.transition = P
        if self.stationary is None:
            self.stationary = _solve_stationary(P)
        pi = np.asarray(self.stationary, dtype=float)
        if abs(pi.sum() - 1.0) > _STATIONARY_TOL or np.any(pi < -_STATIONARY_TOL):
            raise ValueError("stationary vector must be a probability distribution")
        if np.max(np.abs(pi @ P - pi)) > _STATIONARY_TOL:
            raise ValueError("stationary vector does not satisfy pi P = pi within 1e-10")
        self.stationary = np.clip(pi, 0.0, None)
        self.stationary /= self.stationary.sum()

    @property
    def state_count(self) -> int:
        return self.transition.shape[0]

    def power(self, n: int) -> np.ndarray:
        """P^n in one loop over n's bits from the top, memoized: each prefix m
        is P^(m//2) squared, times P for a 1 bit, with the rows rescaled to sum
        to 1, so rounding cannot compound and P^n stays stochastic at any n."""
        if n < 0:
            raise ValueError("matrix power needs n >= 0")
        got = np.linalg.matrix_power(self.transition, min(n, 1))  # P^0, or P^1 for the top bit
        for shift in range(n.bit_length() - 2, -1, -1):
            prefix = n >> shift
            if prefix not in self._powers:
                step = got @ got @ self.transition if prefix & 1 else got @ got
                self._powers[prefix] = step / step.sum(axis=1, keepdims=True)
            got = self._powers[prefix]
        return self._powers.setdefault(n, got)


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    if (P == P[0]).all():  # independent steps: the common row, exactly
        return P[0].copy()
    s = P.shape[0]
    A = np.vstack([P.T - np.eye(s), np.ones((1, s))])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def iid_chain(pi: Sequence[float]) -> FiniteMarkovChain:
    """Chain whose every row equals pi: successive states are independent."""
    pi = np.asarray(pi, dtype=float)
    return FiniteMarkovChain(np.tile(pi, (pi.size, 1)))


def two_state_chain(p: float, q: float | None = None) -> FiniteMarkovChain:
    """Two states with flip probabilities p (0 -> 1) and q (1 -> 0)."""
    if q is None:
        q = p
    return FiniteMarkovChain(np.array([[1.0 - p, p], [q, 1.0 - q]]))


def cycle_chain(s: int = 2) -> FiniteMarkovChain:
    """Deterministic cycle over s states (periodic, non-mixing)."""
    P = np.zeros((s, s))
    for i in range(s):
        P[i, (i + 1) % s] = 1.0
    return FiniteMarkovChain(P, stationary=np.full(s, 1.0 / s))


def random_chain(s: int, rng: np.random.Generator, concentration: float = 1.0) -> FiniteMarkovChain:
    """Random chain with Dirichlet rows: irreducible and aperiodic a.s."""
    P = rng.dirichlet(np.full(s, concentration), size=s)
    # keep rows safely inside the simplex so log/ratio machinery stays finite
    P = (P + 1e-6) / (1.0 + s * 1e-6)
    return FiniteMarkovChain(P)


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a stationary process plus its master seed.

    ``cross_factor`` is set, not passed: None for a copula spec whose cross
    correlation is exactly the identity (independent coordinates, no factor
    product needed); otherwise the factor L with L L^T = R, computed once,
    here, and read by every block and oracle chunk.
    """

    kind: str
    seed: int
    ar_coefficient: float | None = None
    window: int | None = None
    chain: FiniteMarkovChain | None = None
    dimension: int | None = None
    cross_correlation: np.ndarray | None = None
    temporal_coefficient: float | None = None
    cross_factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind '{self.kind}'")
        if self.kind == "ar1":
            phi = self.ar_coefficient
            if phi is None or not (-1.0 < phi < 1.0):
                raise ValueError("AR(1) coefficient must lie strictly inside (-1, 1)")
        if self.kind == "m_dependent":
            if self.window is None or self.window < 0:
                raise ValueError("m_dependent needs window >= 0")
        if self.kind == "markov_chain" and self.chain is None:
            raise ValueError("markov_chain spec needs a chain")
        if self.kind == "gaussian_copula_vector":
            p = self.dimension
            if p is None or p < 1:
                raise ValueError("gaussian_copula_vector needs dimension >= 1")
            phi = self.temporal_coefficient
            if phi is None or not (-1.0 < phi < 1.0):
                raise ValueError("temporal coefficient must lie strictly inside (-1, 1)")
            R = self.cross_correlation
            if R is None:
                R = np.eye(p)
            R = np.asarray(R, dtype=float)
            if R.shape != (p, p):
                raise ValueError(f"cross correlation must be {p}x{p}")
            if np.max(np.abs(R - R.T)) > 1e-12 or np.max(np.abs(np.diag(R) - 1.0)) > 1e-12:
                raise ValueError("cross correlation must be symmetric with unit diagonal")
            if np.min(np.linalg.eigvalsh(R)) < -1e-10:
                raise ValueError("cross correlation must be positive semidefinite")
            object.__setattr__(self, "cross_correlation", R)
            object.__setattr__(self, "cross_factor", None if np.array_equal(R, np.eye(p))
                               else correlation_factor(R))


@dataclass
class SeriesPath:
    """A generated path: real-valued (T x d) or a state-index sequence."""

    values: np.ndarray | None = None
    states: np.ndarray | None = None

    def __post_init__(self):
        if (self.values is None) == (self.states is None):
            raise ValueError("a path holds either values or states")
        if self.values is not None:
            v = np.asarray(self.values, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            self.values = v
        else:
            self.states = np.asarray(self.states, dtype=np.int64)

    @property
    def length(self) -> int:
        arr = self.values if self.values is not None else self.states
        return arr.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1] if self.values is not None else 1


def _rep_rng(seed: int, rep: int) -> Generator:
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=(rep,))))


# Values per block of replications: a block holds as many paths as keep
# paths x max T x dimension within it (a 2^20-value float64 block is 8 MiB)
BLOCK_VALUES = 1 << 20


def block_replications(path_values: int) -> int:
    """Replications per block of paths that hold ``path_values`` values each."""
    return max(1, BLOCK_VALUES // path_values)


def _run_block(payload):
    fn, args, start, count = payload
    return fn(args, start, count)


def _open_pool(workers: int):
    """A process pool of ``workers`` workers; imported here, not at module
    load, so runs that never pool never load ``concurrent.futures``."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def map_replication_blocks(fn: Callable, jobs: Sequence[tuple], replications: int,
                           path_values: Sequence[int], threads: int = 1) -> list[list]:
    """Apply fn(args, start, count) over blocks of replications
    [0, replications) of every job's args; one list of block results per job.

    ``path_values[k]`` is the number of values one path of job k holds, its
    max T times its dimension, and ``block_replications`` sizes that job's
    blocks from it, so a block is drawn, ranked and counted within a fixed
    memory budget. Blocks never span two jobs and do not depend on the
    worker count, and each job's results come back in block order, so the
    output is scheduler-independent. One pool serves every block of the
    call, with ``threads`` as an upper bound on its workers: it never opens
    more of them than there are blocks or CPUs, and none for one.
    """
    payloads, owner = [], []
    for k, (args, values) in enumerate(zip(jobs, path_values, strict=True)):
        block = block_replications(values)
        for start in range(0, replications, block):
            payloads.append((fn, args, start, min(block, replications - start)))
            owner.append(k)
    workers = min(threads, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_block(p) for p in payloads]
    else:
        with _open_pool(workers) as pool:
            results = list(pool.map(_run_block, payloads))
    out: list[list] = [[] for _ in jobs]
    for k, result in zip(owner, results):
        out[k].append(result)
    return out


def correlation_factor(R: np.ndarray) -> np.ndarray:
    """A factor L with L L^T = R for positive SEMIdefinite R.

    Cholesky when possible; otherwise an eigenvalue square root, so singular
    cross-correlations (perfectly dependent coordinates) are reproduced
    exactly rather than through a jitter.
    """
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(R)
        return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# of 4 uint32 words, the entropy hash, the pool mix and the output hash
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0_D7E5, 0x931E_8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of an int >= 0, as SeedSequence reads it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_keys(seed: int, reps: np.ndarray) -> np.ndarray:
    """(R, 2) uint64 Philox keys of the streams ``_rep_rng(seed, rep)`` for a
    uint64 array of reps: each row is SeedSequence(seed, spawn_key=(rep,))
    .generate_state(2, np.uint64), in vectorized uint32 arithmetic.

    SeedSequence hashes its entropy, the seed's words padded with zeros to
    the pool size and then the spawn key's words, into a pool of 4 words:
    the first 4 words fill the pool, all pool words are mixed pairwise, and
    each later word is mixed into every pool word. The hash multiplier steps
    once per hashed word whatever its value, so every rep shares the seed's
    pool and then mixes in its own words: one below 2^32, two from 2^32 on,
    so the second word changes only the rows that have one. The key is 4
    words hashed from the pool, read as two little-endian uint64.
    """
    const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _HASH_MULT_A & _MASK32
        value *= np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(np.array([w], dtype=np.uint32)) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    low = (reps & np.uint64(_MASK32)).astype(np.uint32)
    high = (reps >> np.uint64(32)).astype(np.uint32)
    for word in [np.array([w], dtype=np.uint32) for w in entropy[_POOL_SIZE:]] + [low]:
        pool = [mix(p, hashmix(word)) for p in pool]
    two_words = high > 0
    pool = [np.where(two_words, mix(p, hashmix(high)), p) for p in pool]
    const = _HASH_INIT_B
    state = []
    for p in pool:  # generate_state(2, np.uint64) reads 4 words, one per pool word
        value = p ^ np.uint32(const)
        const = const * _HASH_MULT_B & _MASK32
        value *= np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def _stream_draws(seed: int, shape: tuple, rep_offset: int, uniform: bool = False) -> np.ndarray:
    """One (R, ...) buffer whose row i holds the next draws of replication
    rep_offset + i's stream: standard normals, or uniforms on [0, 1).

    The streams are ``_rep_rng``'s: one Philox is reset per row to the
    state a fresh ``Philox(SeedSequence(seed, spawn_key=(rep,)))`` holds,
    its key from ``_stream_keys``, counter 0 and an empty output buffer.
    """
    if seed < 0 or rep_offset < 0:
        raise ValueError("stream seeds and replication indices must be non-negative")
    out = np.empty(shape)
    keys = _stream_keys(seed, np.arange(rep_offset, rep_offset + shape[0], dtype=np.uint64))
    bits = Philox(key=0)
    state = bits.state
    rng = Generator(bits)
    draw = rng.random if uniform else rng.standard_normal
    for i in range(shape[0]):
        state["state"]["key"] = keys[i]
        bits.state = state
        draw(out=out[i])
    return out


def _ar1_in_place(z: np.ndarray, phi: float) -> None:
    """Run z[:, t] = z[:, t] + phi * z[:, t-1] along axis 1 (time) in place.

    With z[:, 0] the start values and z[:, 1:] the innovations this is the
    AR(1) recurrence on a C-contiguous (R, T, ...) float64 array. The
    trailing values of each (replication, time) pair are viewed as one
    opaque ``np.void`` cell, so both transposing copies, into time-major
    order and back, move whole (R, T) cells rather than single floats. Each
    step is then one vectorized update over the contiguous values of all
    replications and coordinates at that time. Every value sees the same
    operations as stepping ``z`` itself, so the result is bit-identical.
    A non-contiguous ``z`` is rejected: reshaping or viewing it would copy,
    and the recurrence would be written into the copy.
    """
    if not z.flags.c_contiguous:
        raise ValueError("the AR(1) recurrence runs in place on a C-contiguous array")
    R, T, width = z.shape[0], z.shape[1], math.prod(z.shape[2:])
    cells = z.reshape(R, T, width).view(np.dtype((np.void, z.itemsize * width)))[..., 0]
    steps = cells.T.copy()
    values = steps.view(z.dtype).reshape((T, R) + z.shape[2:])
    for t in range(1, T):
        values[t] += phi * values[t - 1]
    cells[...] = steps.T


def _chain_states(chain: FiniteMarkovChain, u: np.ndarray) -> np.ndarray:
    """States of chain paths driven by an (R, T) array of uniforms.

    The first state counts the stationary cumulative thresholds at or below
    u, each later one the thresholds of the previous state's cumulative row
    below u. Only the first S - 1 thresholds count: the rows sum to 1 only
    within 1e-12, so a last threshold below u must not give state S.

    Every count depends on u only through its rank among the chain's
    distinct row thresholds, k = #{thresholds < u}, found for the whole
    block by one ``searchsorted``. A flat table of next states by
    (k, previous state) then makes each step one gather, in time-major
    order so each step reads and writes contiguous values. Memory is O(R T)
    and the table holds (S (S - 1) + 1) S entries at most.
    """
    R, T = u.shape
    s = chain.state_count
    cum = np.cumsum(chain.transition, axis=1)[:, :-1]
    ordered = np.sort(cum, axis=None)  # distinct by hand: np.unique loads numpy.ma
    thresholds = ordered[np.insert(ordered[1:] != ordered[:-1], 0, True)]
    # next_state[k, x]: the thresholds of row x below the k-th distinct one
    place = np.searchsorted(thresholds, cum)
    next_state = (place < np.arange(thresholds.size + 1)[:, None, None]).sum(axis=2).ravel()
    keys = np.searchsorted(thresholds, u.T[1:])  # (T - 1, R), side="left": k
    keys *= s
    states = np.empty((T, R), dtype=np.int64)
    prev = states[0] = np.searchsorted(np.cumsum(chain.stationary)[:-1], u[:, 0], side="right")
    for t, row in enumerate(keys, 1):
        prev = states[t] = next_state[row + prev]
    return np.ascontiguousarray(states.T)


def generate(spec: ProcessSpec, length: int) -> SeriesPath:
    """One path; equals replication 0 of ``generate_batch``."""
    batch = generate_batch(spec, length, 1)
    if spec.kind == "markov_chain":
        return SeriesPath(states=batch[0])
    return SeriesPath(values=batch[0])


def latent_batch(spec: ProcessSpec, length: int, replications: int,
                 rep_offset: int = 0) -> np.ndarray:
    """Latent Gaussian paths of a copula spec, float (R, T, p).

    Each coordinate is a stationary standard-normal AR(1), cross-correlated
    by the spec's matrix. ``generate_batch`` returns ``uniform_marginals`` of
    these same paths; their ranks, and so every rank statistic, are equal.
    """
    if spec.kind != "gaussian_copula_vector":
        raise ValueError("latent paths exist only for the Gaussian-copula vector process")
    if length < 1:
        raise ValueError("path length must be >= 1")
    phi = spec.temporal_coefficient
    z = _stream_draws(spec.seed, (int(replications), int(length), spec.dimension), rep_offset)
    if spec.cross_factor is not None:
        # the factor is applied per replication, as one (T, p) product each, so a
        # path never depends on which batch it is drawn in
        z = z @ spec.cross_factor.T
    z[:, 1:] *= np.sqrt(1.0 - phi * phi)
    _ar1_in_place(z, phi)
    return z


def uniform_marginals(latent: np.ndarray) -> np.ndarray:
    """The standard normal CDF, in place: copula latent values to uniforms."""
    from scipy.special import ndtr  # the only scipy use; rank paths never get here
    return ndtr(latent, out=latent)


def generate_batch(spec: ProcessSpec, length: int, replications: int,
                   rep_offset: int = 0) -> np.ndarray:
    """Paths for replications [rep_offset, rep_offset + replications).

    Returns float (R, T, d) for real-valued kinds, int (R, T) for chains;
    copula paths are ``uniform_marginals(latent_batch(...))``. Replication i
    depends only on (spec.seed, rep_offset + i), never on how the batch is
    split.
    """
    if length < 1:
        raise ValueError("path length must be >= 1")
    T, R = int(length), int(replications)

    if spec.kind == "iid":
        return _stream_draws(spec.seed, (R, T, 1), rep_offset)

    if spec.kind == "ar1":
        phi = spec.ar_coefficient
        x = _stream_draws(spec.seed, (R, T, 1), rep_offset)
        x[:, 0] *= np.sqrt(1.0 / (1.0 - phi * phi))
        _ar1_in_place(x, phi)
        return x

    if spec.kind == "m_dependent":
        m = spec.window
        base = _stream_draws(spec.seed, (R, T + m), rep_offset)
        win = np.lib.stride_tricks.sliding_window_view(base, m + 1, axis=1)
        out = win.sum(axis=2)
        out *= 1.0 / np.sqrt(m + 1.0)
        return out[:, :, None]

    if spec.kind == "markov_chain":
        return _chain_states(spec.chain, _stream_draws(spec.seed, (R, T), rep_offset, uniform=True))

    if spec.kind == "gaussian_copula_vector":
        return uniform_marginals(latent_batch(spec, T, R, rep_offset))

    raise ValueError(f"unknown process kind '{spec.kind}'")
