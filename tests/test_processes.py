import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence
from scipy.signal import lfilter
from scipy.special import ndtr

from tsustat import processes
from tsustat.cli import main
from tsustat.harness import ExperimentConfig, _estimate_theta, file_text, run_experiment
from tsustat.hidim import kendall_matrix, spearman_matrix
from tsustat.processes import (FiniteMarkovChain, ProcessSpec, _ar1_in_place,
                               _rep_rng, _stream_draws, _stream_keys, correlation_factor,
                               cycle_chain, generate,
                               generate_batch, iid_chain, latent_batch, random_chain,
                               two_state_chain)
from tsustat.ustat import kendall_tau_batch, spearman_rho3_batch


def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteMarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))  # rows not stochastic
    with pytest.raises(ValueError):
        FiniteMarkovChain(np.array([[1.2, -0.2], [0.5, 0.5]]))
    chain = two_state_chain(0.25)
    assert chain.stationary == pytest.approx([0.5, 0.5], abs=1e-12)
    skew = two_state_chain(0.1, 0.3)
    assert skew.stationary == pytest.approx([0.75, 0.25], abs=1e-10)
    np.testing.assert_allclose(skew.stationary @ skew.transition, skew.stationary,
                               atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chain_rejects_a_non_finite_entry(bad, capfd):
    """A NaN passes the sign and row-sum checks, and LAPACK then failed on
    the stationary solve; every non-finite entry is a ValueError first."""
    with pytest.raises(ValueError, match="non-finite"):
        FiniteMarkovChain(np.array([[bad, 0.5], [0.5, 0.5]]))
    assert capfd.readouterr().err == ""


def test_power_cache():
    chain = two_state_chain(0.25)
    P3 = chain.power(3)
    assert chain.power(3) is P3
    np.testing.assert_allclose(P3, np.linalg.matrix_power(chain.transition, 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(kind="ar1", seed=0, ar_coefficient=1.0)
    with pytest.raises(ValueError):
        ProcessSpec(kind="nope", seed=0)
    with pytest.raises(ValueError):
        ProcessSpec(kind="gaussian_copula_vector", seed=0, dimension=2,
                    temporal_coefficient=0.5,
                    cross_correlation=np.array([[1.0, 0.4], [0.6, 1.0]]))
    with pytest.raises(ValueError):
        ProcessSpec(kind="gaussian_copula_vector", seed=0, dimension=2,
                    temporal_coefficient=0.5,
                    cross_correlation=np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("kind,kwargs", [
    ("iid", {}),
    ("ar1", {"ar_coefficient": 0.5}),
    ("m_dependent", {"window": 2}),
    ("gaussian_copula_vector", {"dimension": 3, "temporal_coefficient": 0.4}),
])
def test_generation_deterministic(kind, kwargs):
    spec = ProcessSpec(kind=kind, seed=42, **kwargs)
    a = generate(spec, 20)
    b = generate(spec, 20)
    np.testing.assert_array_equal(a.values, b.values)
    batch = generate_batch(spec, 20, 3)
    np.testing.assert_array_equal(a.values, batch[0])
    # splitting a batch does not change replications
    tail = generate_batch(spec, 20, 2, rep_offset=1)
    np.testing.assert_array_equal(batch[1:], tail)


_PREFIX_SPECS = {
    "iid": lambda seed, draw: ProcessSpec(kind="iid", seed=seed),
    "ar1": lambda seed, draw: ProcessSpec(kind="ar1", seed=seed,
                                          ar_coefficient=draw(st.floats(-0.95, 0.95))),
    "m_dependent": lambda seed, draw: ProcessSpec(kind="m_dependent", seed=seed,
                                                  window=draw(st.integers(0, 5))),
    "markov_chain": lambda seed, draw: ProcessSpec(
        kind="markov_chain", seed=seed,
        chain=random_chain(draw(st.integers(2, 4)), np.random.default_rng(seed))),
    "identity_copula": lambda seed, draw: ProcessSpec(
        kind="gaussian_copula_vector", seed=seed, dimension=draw(st.integers(1, 4)),
        temporal_coefficient=draw(st.floats(-0.95, 0.95))),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_PREFIX_SPECS)), seed=st.integers(0, 2 ** 32 - 1),
       T=st.integers(1, 80), extra=st.integers(0, 300), R=st.integers(1, 4),
       offset=st.integers(0, 100), data=st.data())
def test_a_shorter_path_is_a_prefix_of_the_longer_one(kind, seed, T, extra, R, offset, data):
    """Replication i reads its stream in time order, so its path of length T
    is the first T steps of its path at any longer length; the experiments
    draw each replication once, at the largest T of their grid."""
    spec = _PREFIX_SPECS[kind](seed, data.draw)
    longer = generate_batch(spec, T + extra, R, rep_offset=offset)
    np.testing.assert_array_equal(generate_batch(spec, T, R, rep_offset=offset),
                                  longer[:, :T])
    if spec.kind == "gaussian_copula_vector":
        np.testing.assert_array_equal(latent_batch(spec, T, R, rep_offset=offset),
                                      latent_batch(spec, T + extra, R, rep_offset=offset)[:, :T])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rho=st.floats(-0.95, 0.95),
       phi=st.floats(-0.95, 0.95), T=st.integers(2, 80), extra=st.integers(0, 300),
       R=st.integers(1, 4), offset=st.integers(0, 100))
def test_a_correlated_bivariate_prefix_at_t_2_and_beyond(seed, rho, phi, T, extra, R, offset):
    """A correlated copula applies its factor as one (T, p) product per path,
    and BLAS may pick another matmul kernel for a short stack, which can
    round differently: measured, 1 ulp at T = 1 for p = 2 and at small T for
    p = 40. No run the CLI accepts meets those cases, so they are not tested:
    the rank kernels need p = 2 and T >= 2, the mean kernel needs p = 1 (an
    identity factor) and ``scaling`` needs the identity."""
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=2,
                       temporal_coefficient=phi,
                       cross_correlation=np.array([[1.0, rho], [rho, 1.0]]))
    for draw in (latent_batch, generate_batch):
        np.testing.assert_array_equal(draw(spec, T, R, rep_offset=offset),
                                      draw(spec, T + extra, R, rep_offset=offset)[:, :T])


def _lfilter_ar1(innov, x0, phi):
    """AR(1) along axis 1 by scipy's IIR filter: x_t = innov_t + phi x_{t-1}."""
    out = np.empty((innov.shape[0], innov.shape[1] + 1) + innov.shape[2:])
    out[:, 0] = x0
    out[:, 1:], _ = lfilter([1.0], [1.0, -phi], innov, axis=1,
                            zi=(phi * x0)[:, None])
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), phi=st.floats(-0.95, 0.95),
       T=st.integers(1, 60), R=st.integers(1, 5), offset=st.integers(0, 100),
       rho=st.floats(-0.9, 0.9), p=st.integers(1, 8))
@example(seed=3, phi=0.5, T=1, R=2, offset=7, rho=0.0, p=1)
@example(seed=4, phi=-0.3, T=1, R=3, offset=0, rho=0.6, p=1)
@example(seed=5, phi=0.7, T=40, R=5, offset=0, rho=0.0, p=2)  # more replications
@example(seed=6, phi=-0.7, T=40, R=1, offset=0, rho=0.0, p=8)  # more coordinates
@example(seed=7, phi=0.6, T=50, R=2, offset=3, rho=0.3, p=40)  # scaling's widest cell
@example(seed=8, phi=-0.5, T=50, R=1, offset=0, rho=-0.4, p=40)  # and one replication
@example(seed=9, phi=0.8, T=60, R=1, offset=5, rho=0.5, p=1)  # one scalar replication
def test_ar1_recurrence_matches_lfilter(seed, phi, T, R, offset, rho, p):
    """The AR(1) kind, and the recurrence on an (R, T, p) stack with either
    more replications or more coordinates, equal scipy's IIR filter."""
    rngs = [_rep_rng(seed, offset + i) for i in range(R)]
    draws = np.stack([rng.standard_normal(T) for rng in rngs])
    x0 = draws[:, 0] * np.sqrt(1.0 / (1.0 - phi * phi))
    want = _lfilter_ar1(draws[:, 1:], x0, phi)[:, :, None]
    spec = ProcessSpec(kind="ar1", seed=seed, ar_coefficient=phi)
    np.testing.assert_array_equal(generate_batch(spec, T, R, rep_offset=offset), want)
    z = np.random.default_rng(seed).standard_normal((R, T, p))
    want = _lfilter_ar1(z[:, 1:], z[:, 0], phi)
    _ar1_in_place(z, phi)
    np.testing.assert_array_equal(z, want)

    corr = np.array([[1.0, rho], [rho, 1.0]])
    rngs = [_rep_rng(seed, offset + i) for i in range(R)]
    latent = np.stack([rng.standard_normal((T, 2)) for rng in rngs]) @ correlation_factor(corr).T
    z = _lfilter_ar1(np.sqrt(1.0 - phi * phi) * latent[:, 1:], latent[:, 0], phi)
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=2,
                       temporal_coefficient=phi, cross_correlation=corr)
    np.testing.assert_array_equal(generate_batch(spec, T, R, rep_offset=offset), ndtr(z))
    # the uniform paths are the CDF of the latent ones, also with the identity
    # factor skipped
    for s in (spec, ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=3,
                                temporal_coefficient=phi)):
        np.testing.assert_array_equal(generate_batch(s, T, R, rep_offset=offset),
                                      ndtr(latent_batch(s, T, R, rep_offset=offset)))


def test_ar1_rejects_a_strided_view():
    """A view that is not C-contiguous would be copied by the reshape, and the
    recurrence written into the copy; it is rejected and left untouched."""
    z = np.random.default_rng(2).standard_normal((3, 10, 4))
    for view in (z[:, ::2], z[:, :, 1:3], z.transpose(1, 0, 2)):
        before = view.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _ar1_in_place(view, 0.5)
        assert np.array_equal(view, before)


def test_identity_correlation_flag():
    def copula(R):
        return ProcessSpec(kind="gaussian_copula_vector", seed=0, dimension=2,
                           temporal_coefficient=0.5, cross_correlation=R)

    # an exactly identity R needs no factor; any other R, however near, has one
    assert copula(None).cross_factor is None and copula(np.eye(2)).cross_factor is None
    assert copula(np.array([[1.0, 1e-12], [1e-12, 1.0]])).cross_factor is not None
    assert ProcessSpec(kind="iid", seed=0).cross_factor is None
    with pytest.raises(ValueError):
        latent_batch(ProcessSpec(kind="ar1", seed=0, ar_coefficient=0.5), 10, 2)
    R = np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(copula(R).cross_factor, correlation_factor(R))


STREAM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 130 + 3]
STREAM_REPS = list(range(300)) + [10 ** 6 + k for k in range(5)] + [2 ** 32 - 1, 2 ** 32,
                                                                    2 ** 32 + 7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_keys_are_the_seed_sequence_keys(seed):
    """The vectorized keys equal SeedSequence's own, for seeds of one to
    five 32-bit words (so the entropy fills the pool of 4, or runs past it)
    and reps of one and two words, mixed in one call."""
    want = [SeedSequence(seed, spawn_key=(rep,)).generate_state(2, np.uint64)
            for rep in STREAM_REPS]
    got = _stream_keys(seed, np.array(STREAM_REPS, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(STREAM_REPS), 2)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("uniform", [False, True], ids=["normal", "uniform"])
@pytest.mark.parametrize("seed,rep_offset,R", [(3, 0, 0), (3, 0, 5), (2 ** 64 + 1, 17, 4),
                                               (9, 2 ** 32 - 3, 6)],
                         ids=["empty", "first-reps", "long-seed", "straddles-2^32"])
def test_stream_draws_are_the_rep_rng_draws(uniform, seed, rep_offset, R):
    """Each row of a block is its replication's ``_rep_rng`` stream, for
    normals and uniforms, in an empty block and in one whose reps run from
    one 32-bit word to two."""
    got = _stream_draws(seed, (R, 7, 2), rep_offset, uniform=uniform)
    rngs = [_rep_rng(seed, rep_offset + i) for i in range(R)]
    want = [rng.random((7, 2)) if uniform else rng.standard_normal((7, 2)) for rng in rngs]
    assert got.shape == (R, 7, 2)
    np.testing.assert_array_equal(got, np.reshape(want, (R, 7, 2)))
    for bad_seed, bad_offset in ((-1, rep_offset), (seed, -1)):  # SeedSequence rejects them too
        with pytest.raises(ValueError, match="non-negative"):
            _stream_draws(bad_seed, (R, 7, 2), bad_offset, uniform=uniform)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_rank_statistics_equal_on_latent_and_uniform_paths(seed, rho):
    """Ranks are invariant under the strictly increasing normal CDF, so every
    rank statistic is bit-identical on the latent paths and on the uniform
    marginals of the same paths."""
    def copula(p):
        R = np.full((p, p), rho) + (1.0 - rho) * np.eye(p)
        return ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=p,
                           temporal_coefficient=0.5, cross_correlation=R)

    for T in (3, 40, 257):
        latent = latent_batch(copula(2), T, 16, rep_offset=5)
        uniform = ndtr(latent)
        for rank_u in (kendall_tau_batch, spearman_rho3_batch):
            np.testing.assert_array_equal(rank_u(latent[:, :, 0], latent[:, :, 1]),
                                          rank_u(uniform[:, :, 0], uniform[:, :, 1]))
        data = latent_batch(copula(5), T, 1)[0]
        for estimator in (kendall_matrix, spearman_matrix):
            np.testing.assert_array_equal(estimator(data).matrix, estimator(ndtr(data)).matrix)

    # the Monte Carlo theta of the order-3 rank kernel reads latent draws
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "tail", "seed": seed,
        "process": {"kind": "gaussian_copula_vector", "dimension": 2,
                    "temporal_coefficient": 0.5,
                    "cross_correlation": {"kind": "equicorrelation", "rho": rho}},
        "kernel": {"kind": "spearman_sym"}, "t_grid": [10], "x_grid": [0.1],
        "replications": 0, "theta": {"mode": "mc", "draws": 5000}})
    draws = _rep_rng(seed, 2 ** 32).standard_normal((5000, 3, 2))
    if rho:
        draws = draws @ correlation_factor(cfg.process.cross_correlation).T
    vals = cfg.kernel.sample_fn(ndtr(draws))
    theta, se, mode = _estimate_theta(cfg)
    assert mode == "mc"
    assert theta == float(vals.mean())
    assert se == float(vals.std(ddof=1) / math.sqrt(vals.size))


def test_copula_simulate_csv_is_pinned(tmp_path):
    """The CSV ``simulate`` writes for an identity-correlation copula, pinned by
    the digest of the file written before the latent/CDF split."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "experiment": "simulate", "seed": 11, "length": 50,
        "process": {"kind": "gaussian_copula_vector", "dimension": 3,
                    "temporal_coefficient": 0.6, "cross_correlation": {"kind": "identity"}}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    digest = hashlib.sha256((tmp_path / "o" / "path.csv").read_bytes()).hexdigest()
    assert digest == "28912a7df5abd7441fb95be029aee712a1c17c91982bd5a3bfa3967796bd0587"


def test_deterministic_cycle_path():
    spec = ProcessSpec(kind="markov_chain", seed=1, chain=two_state_chain(1.0))
    states = generate(spec, 4).states
    first = states[0]
    np.testing.assert_array_equal(states, [first, 1 - first, first, 1 - first])


def test_ar1_sample_autocorrelation():
    spec = ProcessSpec(kind="ar1", seed=2024, ar_coefficient=0.5)
    x = generate(spec, 1_000_000).values[:, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1 - 0.5) < 0.01


def test_markov_marginals_time_invariant():
    chain = two_state_chain(0.3, 0.1)
    spec = ProcessSpec(kind="markov_chain", seed=11, chain=chain)
    paths = generate_batch(spec, 5, 40_000)
    freqs = (paths == 0).mean(axis=0)
    # strict stationarity: every position matches pi_0 within Monte Carlo error
    se = np.sqrt(chain.stationary[0] * (1 - chain.stationary[0]) / 40_000)
    assert np.max(np.abs(freqs - chain.stationary[0])) < 4 * se


def test_copula_marginals_uniform_and_correlated():
    R = np.array([[1.0, 0.8], [0.8, 1.0]])
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=5, dimension=2,
                       temporal_coefficient=0.6, cross_correlation=R)
    u = generate_batch(spec, 200, 200).reshape(-1, 2)
    assert 0.0 < u.min() and u.max() < 1.0
    assert abs(u[:, 0].mean() - 0.5) < 0.01
    assert np.corrcoef(u[:, 0], u[:, 1])[0, 1] > 0.5


def test_m_dependent_decorrelates_beyond_window():
    m = 2
    x = generate(ProcessSpec(kind="m_dependent", seed=3, window=m), 100_000).values[:, 0]
    lag = m + 1
    r = np.corrcoef(x[:-lag], x[lag:])[0, 1]
    assert abs(r) < 3.0 / np.sqrt(x.size)


def test_m_dependent_conditional_independence_enumeration():
    """Exact check on a finite-alphabet base: windows more than m apart are
    independent given an intermediate window, by joint-pmf enumeration."""
    m = 1
    # base: 5 iid uniform bits; windows W_t = B_t + B_{t+1}
    # X = W_0, Z = W_2, Y = W_3; X is independent of (Y, Z), so X and Y must
    # be conditionally independent given Z
    joint = {}
    for bits in itertools.product((0, 1), repeat=5):
        w = [bits[t] + bits[t + 1] for t in range(4)]
        key = (w[0], w[3], w[2])
        joint[key] = joint.get(key, 0.0) + 1.0 / 32
    pz = {}
    pxz = {}
    pyz = {}
    for (x, y, z), pr in joint.items():
        pz[z] = pz.get(z, 0.0) + pr
        pxz[(x, z)] = pxz.get((x, z), 0.0) + pr
        pyz[(y, z)] = pyz.get((y, z), 0.0) + pr
    for (x, y, z), pr in joint.items():
        assert pr * pz[z] == pytest.approx(pxz[(x, z)] * pyz[(y, z)], abs=1e-14)


def test_csv_round_trip():
    def simulated(process, length):
        """The path a simulate run draws, and the text of its path.csv."""
        cfg = ExperimentConfig.from_dict({"schema_version": 1, "experiment": "simulate",
                                          "seed": 8, "process": process, "length": length})
        text = file_text("path.csv", run_experiment(cfg).tables["path.csv"])
        return generate(cfg.process, length), text

    path, text = simulated({"kind": "gaussian_copula_vector", "dimension": 2,
                            "temporal_coefficient": 0.3}, 10)
    assert text.splitlines()[0] == "t,x1,x2"
    again = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(again[:, 0], np.arange(10))
    np.testing.assert_array_equal(again[:, 1:], path.values)

    chain_path, text = simulated({"kind": "markov_chain",
                                  "transition": [[0.5, 0.5], [0.5, 0.5]]}, 4)
    assert text.splitlines()[0] == "t,state"
    np.testing.assert_array_equal(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                                             dtype=int)[:, 1], chain_path.states)


def test_random_chain_is_valid():
    rng = np.random.default_rng(0)
    for s in (2, 3, 4):
        chain = random_chain(s, rng)
        assert chain.state_count == s
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


def test_iid_and_cycle_factories():
    c = iid_chain([0.2, 0.8])
    np.testing.assert_allclose(c.transition[0], c.transition[1])
    cyc = cycle_chain(3)
    np.testing.assert_allclose(cyc.stationary, [1 / 3] * 3)


def _stepped_chain_states(chain: FiniteMarkovChain, u: np.ndarray) -> np.ndarray:
    """The step rule the threshold ranks replace, one time step at a time:
    the first state counts the stationary cumulative thresholds at or below
    u (at most S - 1), each later one the previous row's thresholds below u."""
    cum, cum_pi = np.cumsum(chain.transition, axis=1), np.cumsum(chain.stationary)
    states = np.empty(u.shape, dtype=np.int64)
    states[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(max=chain.state_count - 1)
    for t in range(1, u.shape[1]):
        states[:, t] = (u[:, t, None] > cum[states[:, t - 1]]).sum(axis=1)
    return states


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(2, 5), zeros=st.floats(0.0, 0.7),
       T=st.integers(1, 60), R=st.integers(0, 9), offset=st.integers(0, 50))
def test_threshold_rank_chain_steps_are_the_stepped_rule(seed, s, zeros, T, R, offset):
    """Random chains, zero transitions included (repeated thresholds), kept
    irreducible by a positive step to the next state."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(s), size=s) * (rng.random((s, s)) >= zeros)
    P[np.arange(s), (np.arange(s) + 1) % s] += 0.1
    chain = FiniteMarkovChain(P / P.sum(axis=1, keepdims=True))
    spec = ProcessSpec(kind="markov_chain", seed=seed, chain=chain)
    u = _stream_draws(seed, (R, T), offset, uniform=True)
    np.testing.assert_array_equal(generate_batch(spec, T, R, rep_offset=offset),
                                  _stepped_chain_states(chain, u))


def test_a_chain_step_never_passes_the_last_state(monkeypatch):
    """A row may sum to 1 - 5e-13, within the 1e-12 check; a uniform above
    its last cumulative threshold still gives the last state, S - 1, not S."""
    chain = FiniteMarkovChain(np.array([[0.5, 0.5 - 5e-13], [0.5, 0.5]]))
    draws = np.full((3, 6), 1 - 1e-13)
    draws[:, 0] = draws[:, 2] = 0.25  # into state 0, whose row is short

    def fake_draws(seed, shape, rep_offset, uniform=False):
        assert uniform and shape == draws.shape
        return draws.copy()

    monkeypatch.setattr(processes, "_stream_draws", fake_draws)
    states = generate_batch(ProcessSpec(kind="markov_chain", seed=1, chain=chain), 6, 3)
    np.testing.assert_array_equal(states, np.tile([0, 1, 0, 1, 1, 1], (3, 1)))
