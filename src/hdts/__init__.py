"""Simultaneous inference for mean vectors and covariance entries of
high-dimensional stationary time series: process simulation, dependence
measures, batched-mean long-run covariance estimation, Gaussian multiplier
bootstrap, and a Monte Carlo verification harness."""

from .errors import (AssumptionError, BoundaryError, HdtsError, NumericalError,
                     ValidationError)
from .model import InnovationLaw, Panel, ProcessSpec, simulate, simulate_coupled
from .rng import RngContract
from .depmeasure import (AuxNorms, DependenceProfile, GAConditionReport,
                         adjusted_norm, closed_form_profile, ga_condition_check,
                         mc_profile, power_law_min_tau, ultra_high_dim_exponent)
from .longrun import (BlockPlan, LongRunEstimate, autocovariance,
                      default_block_length, f_alpha_factor, plan_blocks,
                      sigma_M_target, sigma_hat, sigma_tilde, theoretical_rate,
                      true_sigma, v_of_M)
from .gboot import (BootstrapQuantile, CiReport, bootstrap_quantile, psd_sqrt,
                    simultaneous_ci, simultaneous_cis)
from .covinf import (CovPanel, CovTestResult, build_cov_panel, cov_dep_norm_bound,
                     cov_simultaneous_test, mc_cov_norms, n_pairs, pair_indices)
from .experiments import (CounterexampleResult, ExperimentConfig,
                          ExperimentReport, GaDistanceResult, MdepResult,
                          RateResult, counterexample_demo, coverage_experiment,
                          ga_distance, ks_permutation_pvalue, mc_long_run_sigma,
                          mdep_rate_check, rate_experiment, two_sample_ks)

__version__ = "0.1.0"
