"""Strictly stationary process generators and finite-state Markov chains.

Process kinds: iid normals, AR(1), m-dependent moving windows over an iid
base, finite-state Markov chains started from the stationary distribution,
and a Gaussian-copula vector process (latent vector AR(1) pushed through the
standard normal CDF, giving uniform marginals and exponential mixing).
``SeriesPath.to_csv`` writes one path for ``simulate``.

The copula generator is split in two: ``latent_batch`` draws the latent
Gaussian paths and ``uniform_marginals`` applies the CDF. Rank statistics
read the latent paths, since a strictly increasing marginal map leaves
ranks unchanged. Only the uniform outputs need scipy, which
``uniform_marginals`` imports on first use; nothing else imports it.

All generation is deterministic given (spec, seed): replication i draws
from a counter-based Philox stream keyed by SeedSequence(seed,
spawn_key=(i,)), so parallel replications reproduce independently of
scheduling. Every generator fills one preallocated (R, ...) buffer, one
replication's stream per row, and reads the stream in time order, so a path
of length T is the first T steps of the same replication's longer path. The
experiments draw each replication once, at the largest T of their grid, and
read every shorter T from its prefix. ``map_replication_blocks`` is their
one replication loop, in blocks of at most ``BLOCK_VALUES`` path values, and
the one place that starts a worker pool, through ``_open_pool``;
``concurrent.futures`` is imported only when a pool opens.
"""
from __future__ import annotations

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
        """P^n, memoized per chain."""
        if n < 0:
            raise ValueError("matrix power needs n >= 0")
        got = self._powers.get(n)
        if got is None:
            got = np.linalg.matrix_power(self.transition, n)
            self._powers[n] = got
        return got


def _solve_stationary(P: np.ndarray) -> np.ndarray:
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

    ``identity_correlation`` is set, not passed: it is True for a copula spec
    whose cross correlation is exactly the identity (independent coordinates,
    no factor product needed).
    """

    kind: str
    seed: int
    ar_coefficient: float | None = None
    window: int | None = None
    chain: FiniteMarkovChain | None = None
    dimension: int | None = None
    cross_correlation: np.ndarray | None = None
    temporal_coefficient: float | None = None
    identity_correlation: bool = field(default=False, init=False, repr=False, compare=False)

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
            object.__setattr__(self, "identity_correlation", bool(np.array_equal(R, np.eye(p))))


@dataclass
class SeriesPath:
    """A generated path: real-valued (T x d) or a state-index sequence."""

    values: np.ndarray | None = None
    states: np.ndarray | None = None
    spec: ProcessSpec | None = None

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

    def to_csv(self, fh) -> None:
        if self.states is not None:
            fh.write("t,state\n")
            for t, s in enumerate(self.states):
                fh.write(f"{t},{int(s)}\n")
            return
        d = self.dimension
        fh.write("t," + ",".join(f"x{j + 1}" for j in range(d)) + "\n")
        for t in range(self.length):
            row = ",".join(f"{v:.17g}" for v in self.values[t])
            fh.write(f"{t},{row}\n")


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


def _open_pool(threads: int):
    """A process pool of ``threads`` workers; imported here, not at module
    load, so runs that never pool never load ``concurrent.futures``."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=threads)


def map_replication_blocks(fn: Callable, jobs: Sequence[tuple], replications: int,
                           path_values: Sequence[int], threads: int = 1) -> list[list]:
    """Apply fn(args, start, count) over blocks of replications
    [0, replications) of every job's args; one list of block results per job.

    ``path_values[k]`` is the number of values one path of job k holds, its
    max T times its dimension, and ``block_replications`` sizes that job's
    blocks from it, so a block is drawn, ranked and counted within a fixed
    memory budget. Blocks never span two jobs and do not depend on the
    worker count, and each job's results come back in block order, so the
    output is scheduler-independent. One pool serves every block of the call.
    """
    payloads, owner = [], []
    for k, (args, values) in enumerate(zip(jobs, path_values, strict=True)):
        block = block_replications(values)
        for start in range(0, replications, block):
            payloads.append((fn, args, start, min(block, replications - start)))
            owner.append(k)
    if threads <= 1 or len(payloads) <= 1:
        results = [_run_block(p) for p in payloads]
    else:
        with _open_pool(threads) as pool:
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


def _stream_draws(seed: int, shape: tuple, rep_offset: int, uniform: bool = False) -> np.ndarray:
    """One (R, ...) buffer whose row i holds the next draws of replication
    rep_offset + i's stream: standard normals, or uniforms on [0, 1)."""
    out = np.empty(shape)
    for i in range(shape[0]):
        rng = _rep_rng(seed, rep_offset + i)
        (rng.random if uniform else rng.standard_normal)(out=out[i])
    return out


def _ar1_in_place(z: np.ndarray, phi: float) -> None:
    """Run z[:, t] = z[:, t] + phi * z[:, t-1] along axis 1 (time) in place.

    With z[:, 0] the start values and z[:, 1:] the innovations this is the
    AR(1) recurrence. It runs on a time-major copy, so each step is one
    vectorized update over the contiguous values of all replications and
    coordinates at that time; every value sees the same operations as
    stepping ``z`` itself, so the result is bit-identical.
    """
    steps = np.moveaxis(z, 1, 0).copy()
    for t in range(1, steps.shape[0]):
        steps[t] += phi * steps[t - 1]
    np.moveaxis(z, 1, 0)[...] = steps


def generate(spec: ProcessSpec, length: int) -> SeriesPath:
    """One path; equals replication 0 of ``generate_batch``."""
    batch = generate_batch(spec, length, 1)
    if spec.kind == "markov_chain":
        return SeriesPath(states=batch[0], spec=spec)
    return SeriesPath(values=batch[0], spec=spec)


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
    if not spec.identity_correlation:
        # the factor is applied per replication, as one (T, p) product each, so a
        # path never depends on which batch it is drawn in
        z = z @ correlation_factor(spec.cross_correlation).T
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
        chain = spec.chain
        cum = np.cumsum(chain.transition, axis=1)
        cum_pi = np.cumsum(chain.stationary)
        u = _stream_draws(spec.seed, (R, T), rep_offset, uniform=True)
        states = np.empty((R, T), dtype=np.int64)
        states[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(max=chain.state_count - 1)
        for t in range(1, T):
            rows = cum[states[:, t - 1]]
            states[:, t] = (u[:, t, None] > rows).sum(axis=1)
        return states

    if spec.kind == "gaussian_copula_vector":
        return uniform_marginals(latent_batch(spec, T, R, rep_offset))

    raise ValueError(f"unknown process kind '{spec.kind}'")
