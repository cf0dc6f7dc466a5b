import math

import numpy as np
import pytest

from tsustat import hidim, processes
from tsustat.harness import ExperimentConfig, run_experiment
from tsustat.hidim import (CorrelationMatrixEstimate, kendall_matrix, max_norm_deviation,
                           population_matrix, spearman_matrix)
from tsustat.processes import correlation_factor
from tsustat.ustat import kendall_tau, kendall_tau_numerator, spearman_rho


def test_identical_coordinates_give_unit_offdiagonal():
    t = np.arange(20.0)
    data = np.column_stack([t, 2 * t, t ** 3])
    for est in (kendall_matrix(data), spearman_matrix(data)):
        assert np.allclose(est.matrix, 1.0)


def test_matrix_entries_match_scalar_estimators_exactly():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((60, 5))
    km = kendall_matrix(data).matrix
    sm = spearman_matrix(data).matrix
    for j in range(5):
        for k in range(j + 1, 5):
            pair = data[:, [j, k]]
            assert km[j, k] == kendall_tau(pair)
            assert sm[j, k] == spearman_rho(pair).rho


def test_kendall_matrix_matches_numerator_with_a_tied_column(monkeypatch):
    """T = 257 puts the counter on its uint16 dtype; column 2 takes the tied
    fallback, the rest the batched counter, in one pair block and then, with a
    value budget of 4 rows, in several."""
    rng = np.random.default_rng(4)
    T, p = 257, 6
    data = rng.standard_normal((T, p))
    data[:, 2] = np.round(data[:, 2])
    for budget in (processes.BLOCK_VALUES, 4 * T):
        monkeypatch.setattr(processes, "BLOCK_VALUES", budget)
        km = kendall_matrix(data).matrix
        for j in range(p):
            for k in range(j + 1, p):
                expected = kendall_tau_numerator(data[:, j], data[:, k]) / math.comb(T, 2)
                assert km[j, k] == km[k, j] == expected


@pytest.mark.parametrize("pairs_per_block", [1, 4, 7, 13])
def test_kendall_matrix_blocks_may_cut_a_column_run(monkeypatch, pairs_per_block):
    """The pairs of column j, (j, j+1..p-1), fill consecutive block rows. Under
    value budgets of 1, 4, 7 and 13 pairs a block, blocks end inside those
    runs (column 0 alone holds 9 pairs), and every entry still equals the
    pairwise count and the one-block matrix bit for bit."""
    rng = np.random.default_rng(12)
    T, p = 300, 10
    data = rng.standard_normal((T, p))
    whole = kendall_matrix(data).matrix
    monkeypatch.setattr(processes, "BLOCK_VALUES", pairs_per_block * T)
    blocks = []
    original = hidim._count_inversions_batch

    def recorded(rows):
        blocks.append(rows.shape[0])
        return original(rows)
    monkeypatch.setattr(hidim, "_count_inversions_batch", recorded)
    km = kendall_matrix(data).matrix
    n_pairs = p * (p - 1) // 2
    assert blocks == [pairs_per_block] * (n_pairs // pairs_per_block) + (
        [n_pairs % pairs_per_block] if n_pairs % pairs_per_block else [])
    np.testing.assert_array_equal(km, whole)
    for j in range(p):
        for k in range(j + 1, p):
            assert km[j, k] == kendall_tau_numerator(data[:, j], data[:, k]) / math.comb(T, 2)


def test_matrix_shape_invariants():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((40, 6))
    for est in (kendall_matrix(data), spearman_matrix(data)):
        M = est.matrix
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 1.0)
        assert np.max(np.abs(M)) <= 1.0


def test_spearman_matrix_is_exact_past_int64():
    """At T = 3,100,000 the rank square sum, the largest rank Gram entry,
    passes int64; the Gram is still exact, so a column against itself reads
    1 and against its reverse -1."""
    t = np.arange(3_100_000.0)
    M = spearman_matrix(np.column_stack([t, -t, t])).matrix
    assert np.array_equal(M, [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def test_rank_matrices_handle_ties():
    """With ties in one coordinate, both matrices hold the scalar estimators'
    values under sign(0) = 0, which for Spearman satisfy Hoeffding's
    identity, and keep a unit diagonal."""
    rng = np.random.default_rng(2)
    data = rng.standard_normal((30, 3))
    data[:, 1] = np.round(data[:, 1])  # introduce ties in one coordinate
    km = kendall_matrix(data).matrix
    sm = spearman_matrix(data).matrix
    for j, k in ((0, 1), (0, 2), (1, 2)):
        r = spearman_rho(data[:, [j, k]])
        assert km[j, k] == kendall_tau(data[:, [j, k]]) == r.tau
        assert sm[j, k] == r.rho == pytest.approx((28 * r.rho3 + 3 * r.tau) / 31, abs=1e-12)
    assert np.all(np.diag(km) == 1.0) and np.all(np.diag(sm) == 1.0)


def test_validation_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        kendall_matrix(rng.standard_normal((2, 3)))  # too short
    with pytest.raises(ValueError):
        kendall_matrix(rng.standard_normal((10, 1)))  # one coordinate
    bad = rng.standard_normal((10, 3))
    bad[:, 2] = 1.0
    with pytest.raises(ValueError):
        kendall_matrix(bad)  # constant coordinate
    with pytest.raises(ValueError):
        CorrelationMatrixEstimate(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_independent_coordinates_max_entry_scaling():
    rng = np.random.default_rng(4)
    T, p = 10_000, 5
    data = rng.standard_normal((T, p))
    est = kendall_matrix(data)
    dev = max_norm_deviation(est, population_matrix(np.eye(p), "kendall"))
    # iid tau standard deviation is about 2/(3 sqrt(T)); allow union-bound slack
    assert dev <= 4.0 / math.sqrt(T)


def test_max_norm_deviation_examples():
    pop = population_matrix(np.eye(3), "kendall")
    est = CorrelationMatrixEstimate(np.eye(3))
    assert max_norm_deviation(est, pop) == 0.0
    M = np.eye(3)
    M[0, 1] = M[1, 0] = 0.3
    est2 = CorrelationMatrixEstimate(M)
    assert max_norm_deviation(est2, pop) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        max_norm_deviation(est, np.eye(4))


@pytest.mark.parametrize("kind", ["kendall", "spearman"])
def test_population_matrix_of_the_identity_is_the_identity(kind):
    assert np.array_equal(population_matrix(np.eye(4), kind), np.eye(4))


@pytest.mark.parametrize("kind", ["kendall", "spearman"])
@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_population_matrix_of_a_perfect_correlation_is_exact(kind, rho):
    R = np.array([[1.0, rho], [rho, 1.0]])
    assert np.array_equal(population_matrix(R, kind), R)


@pytest.mark.parametrize("kind", ["kendall", "spearman"])
@pytest.mark.parametrize("rho", [0.5, -0.6])
def test_population_matrix_matches_iid_copula_draws(kind, rho):
    """The closed form against the estimator on 20,000 iid draws, within four
    standard errors taken from ten batches of 2,000; ranks, and so both
    estimators, are unchanged by the copula's normal margins."""
    R = np.array([[1.0, rho], [rho, 1.0]])
    draws = np.random.default_rng(71).standard_normal((20_000, 2))
    draws = draws @ correlation_factor(R).T
    fn = kendall_matrix if kind == "kendall" else spearman_matrix
    batches = [fn(b).matrix[0, 1] for b in np.split(draws, 10)]
    se = np.std(batches, ddof=1) / math.sqrt(10)
    exact = population_matrix(R, kind)[0, 1]
    assert abs(fn(draws).matrix[0, 1] - exact) <= 4 * se
    assert se < 0.01


def test_population_matrix_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        population_matrix(np.eye(2), "pearson")


def _scaling(seed, t_grid, p_grid, replications, estimator="kendall", phi=0.0,
             cross_correlation=None):
    """The report of a scaling run of the bivariate copula process."""
    process = {"kind": "gaussian_copula_vector", "dimension": 2, "temporal_coefficient": phi,
               "cross_correlation": cross_correlation or {"kind": "identity"}}
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "scaling", "seed": seed, "process": process,
        "t_grid": t_grid, "p_grid": p_grid, "replications": replications,
        "estimator": estimator})
    return run_experiment(cfg).data["report"]


def test_dependent_deviations_dominate_iid():
    iid_rep = _scaling(99, [256], [5], 60, "spearman", phi=0.0)
    dep_rep = _scaling(99, [256], [5], 60, "spearman", phi=0.7)
    assert dep_rep["cells"][0]["median_deviation"] >= iid_rep["cells"][0]["median_deviation"]


def test_scaling_experiment_small_grid():
    report = _scaling(55, [64, 128], [3], 40, "spearman")
    assert len(report["cells"]) == 2
    meds = {c["T"]: c["median_deviation"] for c in report["cells"]}
    assert meds[128] < meds[64]  # deviations shrink with T
    slope = report["slopes_by_p"]["3"]
    assert slope is not None and slope < 0
    for c in report["cells"]:
        assert c["ratio_to_rate"] > 0


def test_scaling_experiment_rejects_correlated_coordinates():
    with pytest.raises(ValueError):
        _scaling(57, [32], [2], 2, cross_correlation={"kind": "equicorrelation", "rho": 0.9})


def test_scaling_experiment_degenerate_cell():
    report = _scaling(56, [32], [2], 1)
    assert report["slopes_by_p"]["2"] is None
    assert not report["cells"][0]["slope_defined"]
    assert report["slopes_by_p"] == {"2": None}
