import io
import json
import math

import numpy as np
import pytest

from tsustat.hidim import (CorrelationMatrixEstimate, independent_population,
                           kendall_matrix, matrix_to_csv, matrix_to_json,
                           max_norm_deviation, population_matrix_oracle,
                           scaling_experiment, spearman_matrix)
from tsustat.processes import ProcessSpec
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


def test_kendall_matrix_matches_numerator_with_a_tied_column():
    """T = 257 puts the counter on its uint16 dtype; column 2 takes the tied
    fallback, the rest the batched counter, split over several pair chunks."""
    rng = np.random.default_rng(4)
    T, p = 257, 6
    data = rng.standard_normal((T, p))
    data[:, 2] = np.round(data[:, 2])
    for chunk in (1024, 4):
        km = kendall_matrix(data, pair_chunk=chunk).matrix
        for j in range(p):
            for k in range(j + 1, p):
                expected = kendall_tau_numerator(data[:, j], data[:, k]) / math.comb(T, 2)
                assert km[j, k] == km[k, j] == expected


def test_matrix_shape_invariants():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((40, 6))
    for est in (kendall_matrix(data), spearman_matrix(data)):
        M = est.matrix
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 1.0)
        assert np.max(np.abs(M)) <= 1.0


def test_kendall_matrix_handles_ties_spearman_rejects():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((30, 3))
    data[:, 1] = np.round(data[:, 1])  # introduce ties in one coordinate
    km = kendall_matrix(data).matrix
    pair = data[:, [0, 1]]
    assert km[0, 1] == pytest.approx(kendall_tau(pair), abs=1e-15)
    with pytest.raises(ValueError):
        spearman_matrix(data)


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
        CorrelationMatrixEstimate(kind="kendall",
                                  matrix=np.array([[1.0, 0.2], [0.3, 1.0]]),
                                  sample_length=10)


def test_independent_coordinates_max_entry_scaling():
    rng = np.random.default_rng(4)
    T, p = 10_000, 5
    data = rng.standard_normal((T, p))
    est = kendall_matrix(data)
    dev = max_norm_deviation(est, independent_population(p, "kendall"))
    # iid tau standard deviation is about 2/(3 sqrt(T)); allow union-bound slack
    assert dev <= 4.0 / math.sqrt(T)


def test_max_norm_deviation_examples():
    pop = independent_population(3, "kendall")
    est = CorrelationMatrixEstimate(kind="kendall", matrix=np.eye(3), sample_length=10)
    assert max_norm_deviation(est, pop) == 0.0
    M = np.eye(3)
    M[0, 1] = M[1, 0] = 0.3
    est2 = CorrelationMatrixEstimate(kind="kendall", matrix=M, sample_length=10)
    assert max_norm_deviation(est2, pop) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        max_norm_deviation(est, independent_population(3, "spearman"))
    with pytest.raises(ValueError):
        max_norm_deviation(est, independent_population(4, "kendall"))


def test_population_oracle_identity_cross_correlation():
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=33, dimension=3,
                       temporal_coefficient=0.5, cross_correlation=np.eye(3))
    pop = population_matrix_oracle(spec, "kendall", oracle_draws=20_000)
    off = pop.matrix[~np.eye(3, dtype=bool)]
    se = pop.standard_error[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) <= 3.5 * np.maximum(se, 1e-3))
    assert pop.oracle_draws == 20_000


def test_population_oracle_correlated_pair_reproducible():
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=7, dimension=2,
                       temporal_coefficient=0.5, cross_correlation=R)
    pop1 = population_matrix_oracle(spec, "kendall", oracle_draws=40_000)
    pop2 = population_matrix_oracle(spec, "kendall", oracle_draws=40_000)
    assert pop1.matrix[0, 1] == pop2.matrix[0, 1]
    assert pop1.standard_error[0, 1] < 0.01
    assert 0.2 < pop1.matrix[0, 1] < 0.45


def test_population_oracle_perfectly_correlated_pair():
    R = np.array([[1.0, 1.0], [1.0, 1.0]])
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=2, dimension=2,
                       temporal_coefficient=0.3, cross_correlation=R)
    pop = population_matrix_oracle(spec, "kendall", oracle_draws=10_000)
    assert pop.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_dependent_deviations_dominate_iid():
    base = dict(kind="gaussian_copula_vector", dimension=2, cross_correlation=np.eye(2))
    iid_spec = ProcessSpec(seed=99, temporal_coefficient=0.0, **base)
    dep_spec = ProcessSpec(seed=99, temporal_coefficient=0.7, **base)
    iid_rep = scaling_experiment(iid_spec, [256], [5], replications=60, kind="spearman")
    dep_rep = scaling_experiment(dep_spec, [256], [5], replications=60, kind="spearman")
    assert dep_rep.cells[0].median_deviation >= iid_rep.cells[0].median_deviation


def test_population_oracle_guards():
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=7, dimension=2,
                       temporal_coefficient=0.5)
    with pytest.raises(ValueError):
        population_matrix_oracle(spec, "kendall", oracle_draws=5_000)
    iid = ProcessSpec(kind="iid", seed=1)
    with pytest.raises(ValueError):
        population_matrix_oracle(iid, "kendall", oracle_draws=20_000)


def test_scaling_experiment_small_grid():
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=55, dimension=2,
                       temporal_coefficient=0.0, cross_correlation=np.eye(2))
    report = scaling_experiment(spec, [64, 128], [3], replications=40, kind="spearman")
    assert len(report.cells) == 2
    meds = {c.T: c.median_deviation for c in report.cells}
    assert meds[128] < meds[64]  # deviations shrink with T
    slope = report.slopes_by_p[3]
    assert slope is not None and slope < 0
    for c in report.cells:
        assert c.ratio_to_rate > 0


def test_matrix_exports():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((25, 3))
    est = kendall_matrix(data)
    buf = io.StringIO()
    matrix_to_csv(est.matrix, buf)
    rows = [list(map(float, line.split(","))) for line in buf.getvalue().splitlines()]
    np.testing.assert_array_equal(np.array(rows), est.matrix)
    payload = json.loads(matrix_to_json(est))
    assert payload["kind"] == "kendall" and payload["sample_length"] == 25
    pop = independent_population(3, "kendall")
    pop_payload = json.loads(matrix_to_json(pop))
    assert pop_payload["provenance"].startswith("exact")


def test_scaling_experiment_degenerate_cell():
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=56, dimension=2,
                       temporal_coefficient=0.0, cross_correlation=np.eye(2))
    report = scaling_experiment(spec, [32], [2], replications=1)
    assert report.slopes_by_p[2] is None
    assert not report.cells[0].slope_defined
    out = report.to_json()
    assert '"slopes_by_p"' in out
