"""U-statistics of bounded kernels on temporally dependent data.

Subpackages: kernels (bounded symmetric kernels), processes (stationary
generators and finite Markov chains), mixing (exact dependence coefficients),
ustat (evaluation, rank statistics, decomposition), bounds (tail and log-MGF
families), hidim (rank-correlation matrices), harness/cli (experiments).
"""
from .bounds import (BoundConstants, TailPoint, bernstein_envelope, bias_offset,
                     calibrate_constants, dominates, empirical_log_mgf, hoeffding_bound,
                     mixing_sum_logmgf_bound, ustat_tail_bound)
from .hidim import (CorrelationMatrixEstimate, kendall_matrix, max_norm_deviation,
                    population_matrix, spearman_matrix)
from .kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                      spearman_symmetric_kernel, table_kernel)
from .mixing import (alpha_coeff, beta_coeff, conditional_phi_coeff, fit_decay_rate,
                     mixing_profile, phi_coeff)
from .processes import (FiniteMarkovChain, ProcessSpec, SeriesPath, cycle_chain,
                        generate, generate_batch, iid_chain, latent_batch, random_chain,
                        two_state_chain)
from .ustat import (SpearmanResult, check_zero_conditional_means, decompose, kendall_tau,
                    kendall_tau_batch, spearman_rho, theta_independent, theta_star,
                    u_statistic)

__version__ = "0.1.0"
