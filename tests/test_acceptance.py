"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value is either computed by an independent oracle inside the
test (brute-force enumeration, closed-form eigen decay, exact chain algebra)
or is a structural identity checked at the stated tolerance.
"""
import itertools
import math
import time

import numpy as np
import pytest

from tsustat.bounds import (BernsteinParams, bernstein_envelope, empirical_log_mgf,
                            ustat_tail_bound, bias_offset)
from tsustat.harness import ExperimentConfig, calibrate_from_tail, run_experiment
from tsustat.kernels import sign_product_kernel, spearman_symmetric_kernel, table_kernel
from tsustat.mixing import (alpha_coeff, beta_coeff, conditional_phi_coeff, fit_decay_rate,
                            phi_coeff)
from tsustat.processes import (ProcessSpec, generate, generate_batch, random_chain,
                               two_state_chain)
from tsustat.ustat import (check_zero_conditional_means, decompose, kendall_tau,
                           kendall_tau_batch, theta_independent, theta_star, u_statistic)

from oracles import beta_coeff_bruteforce, hoeffding_decoupling_average


def report(criterion: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: PASS"
    if detail:
        line += f"  [{detail}]"
    print(line)


# -- 1 -----------------------------------------------------------------------

def test_01_kendall_oracle_equivalence():
    """Fast merge-counting tau equals brute-force pairwise U-statistic exactly
    on 1000 fuzzed tie-free paths with T <= 200, in under 10 seconds."""
    rng = np.random.default_rng(101)
    kernel = sign_product_kernel()
    start = time.time()
    checked = 0
    for i in range(1000):
        T = int(rng.integers(2, 51)) if i < 900 else int(rng.integers(51, 201))
        path = rng.standard_normal((T, 2))
        fast = kendall_tau(path)
        brute = u_statistic(path, kernel)
        assert fast == brute, (T, fast, brute)
        checked += 1
    elapsed = time.time() - start
    assert checked == 1000 and elapsed < 10.0
    report("01 kendall-oracle-equivalence", f"1000 paths in {elapsed:.1f}s")


# -- 2 -----------------------------------------------------------------------

def _brute_rank_rho(path: np.ndarray) -> float:
    T = path.shape[0]
    rx = np.empty(T)
    ry = np.empty(T)
    rx[np.argsort(path[:, 0])] = np.arange(1, T + 1)
    ry[np.argsort(path[:, 1])] = np.arange(1, T + 1)
    mx, my = rx.mean(), ry.mean()
    return float(((rx - mx) * (ry - my)).sum()
                 / math.sqrt(((rx - mx) ** 2).sum() * ((ry - my) ** 2).sum()))


def _brute_rho3(path: np.ndarray) -> float:
    T = path.shape[0]
    idx = np.array(list(itertools.combinations(range(T), 3)))
    total = np.zeros(len(idx))
    for a, b, c in itertools.permutations(range(3)):
        total += (np.sign(path[idx[:, a], 0] - path[idx[:, b], 0])
                  * np.sign(path[idx[:, a], 1] - path[idx[:, c], 1]))
    return float(0.5 * total.sum() / len(idx))


def _brute_tau(path: np.ndarray) -> float:
    x, y = path[:, 0], path[:, 1]
    prod = np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :])
    T = x.size
    return float(np.triu(prod, 1).sum() / math.comb(T, 2))


def test_02_spearman_identity():
    """rho from ranks equals ((T-2) rho3 + 3 tau) / (T+1) within 1e-10 on 200
    fuzzed tie-free paths, all three parts from independent enumerations."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(5, 51))
        path = rng.standard_normal((T, 2))
        rho = _brute_rank_rho(path)
        rho3 = _brute_rho3(path)
        tau = _brute_tau(path)
        resid = abs(rho - ((T - 2) / (T + 1)) * rho3 - 3.0 * tau / (T + 1))
        worst = max(worst, resid)
        assert resid <= 1e-10
    report("02 spearman-identity", f"max residual {worst:.2e}")


# -- 3 -----------------------------------------------------------------------

def test_03_decoupling_identity():
    """All-permutation block average equals the U-statistic within 1e-12 for
    every T <= 8, r in {2, 3}, across 50 fuzzed paths."""
    rng = np.random.default_rng(303)
    combos = [(r, T) for r in (2, 3) for T in range(r, 9)]
    kernels = {2: sign_product_kernel(), 3: spearman_symmetric_kernel()}
    paths = 0
    worst = 0.0
    while paths < 50:
        r, T = combos[paths % len(combos)]
        path = rng.standard_normal((T, 2))
        diff = abs(hoeffding_decoupling_average(path, kernels[r])
                   - u_statistic(path, kernels[r]))
        worst = max(worst, diff)
        assert diff <= 1e-12, (r, T, diff)
        paths += 1
    report("03 decoupling-identity", f"50 paths, max gap {worst:.2e}")


# -- 4 -----------------------------------------------------------------------

def test_04_telescoping_decomposition():
    """Residual of U - expectation - sum of order terms is <= 1e-10 on 500
    fuzzed chain instances; aggregated terms have exactly zero conditional
    means by enumeration and never exceed twice the kernel bound."""
    rng = np.random.default_rng(404)
    worst_resid = 0.0
    worst_p1 = 0.0
    worst_ratio = 0.0
    for i in range(500):
        s = int(rng.integers(2, 5))
        r = 2 if i % 2 == 0 else 3
        T = int(rng.integers(r + 1, 41))
        chain = random_chain(s, rng)
        M = float(rng.uniform(0.5, 3.0))
        kernel = table_kernel(rng.uniform(-M, M, size=(s,) * r))
        spec = ProcessSpec(kind="markov_chain", seed=int(rng.integers(1 << 30)),
                           chain=chain)
        rep = decompose(generate(spec, T), chain, kernel)
        worst_resid = max(worst_resid, abs(rep["residual"]) / max(1.0, abs(rep["u_value"])))
        worst_ratio = max(worst_ratio, rep["b_term_max_abs"] / (2.0 * rep["kernel_bound"]))
        assert abs(rep["residual"]) <= 1e-10 * max(1.0, abs(rep["u_value"]))
        assert rep["b_term_max_abs"] <= 2.0 * rep["kernel_bound"]
        p1 = check_zero_conditional_means(chain, kernel, T)
        worst_p1 = max(worst_p1, p1)
        assert p1 <= 1e-10
    report("04 telescoping-decomposition",
           f"500 instances, max residual {worst_resid:.2e}, "
           f"max conditional mean {worst_p1:.2e}, max |B|/2M {worst_ratio:.3f}")


# -- 5 -----------------------------------------------------------------------

def test_05_mixing_exactness():
    """Closed-form eigen decay for the symmetric 2-state chain, fitted rate
    ln 2 within 2%, coefficient ordering on 100 random chains, and partition
    brute force equal to the formula for s <= 4."""
    chain = two_state_chain(0.25)
    for n in range(1, 11):
        want = 0.5 * 0.5 ** n  # beta(n) = 0.5 |1 - p - q|^n by eigen decay
        assert abs(beta_coeff(chain, n) - want) <= 1e-12
        assert abs(phi_coeff(chain, n) - want) <= 1e-12
    gamma = fit_decay_rate(([n for n in range(1, 9)],
                            [beta_coeff(chain, n) for n in range(1, 9)]))
    assert abs(gamma - math.log(2)) <= 0.02 * math.log(2)

    rng = np.random.default_rng(505)
    for _ in range(100):
        c = random_chain(int(rng.integers(2, 5)), rng)
        for n in range(1, 9):
            a, b, p = alpha_coeff(c, n), beta_coeff(c, n), phi_coeff(c, n)
            assert a <= b <= p

    for s in (2, 3, 4):
        c = random_chain(s, rng)
        for n in (1, 2, 3):
            assert abs(beta_coeff_bruteforce(c, n) - beta_coeff(c, n)) <= 1e-12
    report("05 mixing-exactness", f"gamma-hat {gamma:.6f} vs ln2 {math.log(2):.6f}")


# -- 6 -----------------------------------------------------------------------

def test_06_conditional_phi_dominance():
    """Conditional phi never exceeds twice the unconditional phi, enumerated
    over random chains (s <= 4), J <= 2, block lengths <= 3, lags <= 6,
    and all conditioning states; runs in under 60 seconds."""
    rng = np.random.default_rng(606)
    start = time.time()
    checked = 0
    for s in (2, 3, 4):
        for _ in range(4):
            chain = random_chain(s, rng)
            phis = {n: phi_coeff(chain, n) for n in range(1, 7)}
            conds = [[(0, a)] for a in range(s)]
            conds += [[(0, a), (2, b)] for a in range(s) for b in range(s)]
            for cond in conds:
                for j in (1, 2, 3):
                    for n in range(1, 7):
                        v = conditional_phi_coeff(chain, cond, j, n)
                        assert v <= 2.0 * phis[n] + 1e-12, (s, cond, j, n)
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("06 conditional-phi-dominance", f"{checked} cases in {elapsed:.1f}s")


# -- 7 -----------------------------------------------------------------------

def test_07_concentration_rate():
    """Kendall's tau on an exponentially mixing bivariate copula process:
    log RMS deviation against log T has slope -0.5 within 0.05, with
    T in {250, ..., 4000} and 500 replications, in under 5 minutes."""
    start = time.time()
    spec = ProcessSpec(kind="gaussian_copula_vector", seed=707, dimension=2,
                       temporal_coefficient=0.5, cross_correlation=np.eye(2))
    t_grid = [250, 500, 1000, 2000, 4000]
    rms = []
    for T in t_grid:
        batch = generate_batch(spec, T, 500)
        taus = kendall_tau_batch(batch[:, :, 0], batch[:, :, 1])
        rms.append(float(np.sqrt(np.mean(taus ** 2))))  # theta = 0 exactly
    slope = float(np.polyfit(np.log(t_grid), np.log(rms), 1)[0])
    elapsed = time.time() - start
    assert abs(slope + 0.5) <= 0.05, (slope, rms)
    assert elapsed < 300.0
    report("07 concentration-rate", f"slope {slope:.4f} in {elapsed:.1f}s")


# -- 8 -----------------------------------------------------------------------

def test_08_tail_dominance_held_out():
    """Constants calibrated on T in {250, 500} dominate the empirical tail at
    held-out T = 2000 at every grid point, within 3 binomial standard errors,
    with 10^4 replications."""
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "experiment": "tail",
        "seed": 808,
        "process": {"kind": "gaussian_copula_vector", "dimension": 2,
                    "temporal_coefficient": 0.5,
                    "cross_correlation": {"kind": "identity"}},
        "kernel": {"kind": "sign_product"},
        "t_grid": [250, 500, 2000],
        "x_grid": [round(0.035 * j, 6) for j in range(1, 11)],
        "replications": 10_000,
    })
    run = run_experiment(cfg)
    cal = calibrate_from_tail(run, train_t=[250, 500], c4=1.0)
    assert not cal["capped"]
    held_out = [c for c in run.data["curves"] if c["T"] == 2000][0]
    M, constants = run.data["kernel_bound"], cal["constants"]
    offset = bias_offset(2000, M, constants["c4"])
    for x, p, se in zip(held_out["x"], held_out["empirical"], held_out["stderr"]):
        bound = ustat_tail_bound(max(x - offset, 0.0), 2000, M, constants["c5"])
        assert bound >= p - 3.0 * se, (x, p, se, bound)
    report("08 tail-dominance-held-out",
           f"c5 {constants['c5']:.3f} binding T={cal['binding_point']['T']} "
           f"x={cal['binding_point']['x']}")


# -- 9 -----------------------------------------------------------------------

def test_09_bias_bounded():
    """Exact sqrt(T)-scaled bias of a 2-state chain stays bounded over
    T in {10, ..., 80} with no growth trend (log-log slope <= 0.02)."""
    chain = two_state_chain(0.25)
    kernel = table_kernel(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    theta = theta_independent(chain, kernel)
    t_grid = [10, 20, 30, 40, 50, 60, 70, 80]
    scaled = []
    for T in t_grid:
        bias = abs(theta_star(chain, kernel, T) - theta)
        scaled.append(bias * math.sqrt(T))
    cap = max(scaled)
    slope = float(np.polyfit(np.log(t_grid), np.log(scaled), 1)[0])
    assert cap < math.inf and all(v <= cap for v in scaled)
    assert slope <= 0.02, slope
    report("09 bias-bounded", f"sqrtT-scaled max {cap:.4f}, slope {slope:.3f}")


# -- 10 ----------------------------------------------------------------------

@pytest.mark.slow
def test_10_maxnorm_scaling_band():
    """Median max-norm deviation over a (T, p) grid, divided by
    sqrt(log(Tp)/T), varies by less than a factor 1.5 across all cells;
    runs in under 10 minutes."""
    start = time.time()
    process = {"kind": "gaussian_copula_vector", "dimension": 2, "temporal_coefficient": 0.5,
               "cross_correlation": {"kind": "identity"}}
    rep = run_experiment(ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "scaling", "seed": 424242, "process": process,
        "t_grid": [500, 1000, 2000], "p_grid": [10, 20, 40], "replications": 200,
        "estimator": "kendall"})).data["report"]
    ratios = [c["ratio_to_rate"] for c in rep["cells"]]
    band = max(ratios) / min(ratios)
    elapsed = time.time() - start
    assert band < 1.5, ratios
    assert elapsed < 600.0
    report("10 maxnorm-scaling-band", f"band factor {band:.3f} in {elapsed:.0f}s")


# -- 11 ----------------------------------------------------------------------

def test_11_combined_envelope_dominance():
    """The combined Bernstein envelope dominates the empirical log-MGF of
    sums of 10 to 50 independent bounded centered summands on a 50-point
    grid inside the admissible interval."""
    rng = np.random.default_rng(1111)
    for n, kappa_i in ((10, 0.0), (30, 0.1), (50, 0.2)):
        per = BernsteinParams(sigma=1.0, kappa=kappa_i)
        combined = BernsteinParams(n * per.sigma, n * per.kappa)  # as mgf-check builds it
        eta_max = 0.99 / combined.kappa if combined.kappa > 0 else 0.5
        etas = np.linspace(eta_max / 50, eta_max, 50)
        # per-summand envelope verified numerically: log cosh eta <= (eta)^2/(1-k eta)
        for e in etas:
            assert math.log(math.cosh(e)) <= bernstein_envelope(per, e) + 1e-12
        sums = rng.choice([-1.0, 1.0], size=(120_000, n)).sum(axis=1)
        for e in etas:
            emp = empirical_log_mgf(sums, e)
            env = bernstein_envelope(combined, e)
            assert emp <= env, (n, e, emp, env)
    report("11 combined-envelope-dominance", "n in {10, 30, 50}, 50-point grids")
