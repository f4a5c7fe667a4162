"""Count-valued exponential-family random graph models for directed flow
networks: data model, sufficient statistics, subsampled ridge-penalized
pseudo-likelihood estimation, Markov-chain simulation, adequacy checks, and
coefficient-knockout counterfactuals.
"""

from .errors import ErgmFlowError, EstimationError, ValidationError
from .network import (RACIAL_CATEGORIES, REGIONS, DyadCovariateSet,
                      FlowNetwork, NodeTable, SummaryReport, build_network,
                      summarize)
from .stats import (LINEAR_KINDS, NONLINEAR_KINDS, TERM_KINDS, ChangeStats,
                    ModelSpec, TermSpec, conditional_profile,
                    dependence_pieces, global_statistic, model_from_dict,
                    model_to_dict, mutual_min_stat, statistic_vector,
                    waypoint_flow_stat)
from .estimator import (DyadSample, FitResult, census_sample,
                        conditional_log_pmf, effect_multiplier, fit_mple,
                        penalized_pseudo_loglik, pseudo_bic,
                        stratified_dyad_sample)
from .sampler import (AdequacyReport, ChainConfig, ChainRun, KnockoutReport,
                      adequacy_check, expected_total_flow,
                      knockout_experiment, mcmc_simulate)
from .ingest import (DEFAULT_COVARIATE_DISTRIBUTIONS, GroupFlowMatrix,
                     build_dyad_covariates, group_flow_matrix, load_distances,
                     load_flows, load_nodes, racial_dissimilarity,
                     scalar_dissimilarity, synthetic_generate,
                     write_distances_csv, write_flows_csv, write_nodes_csv)

__version__ = "0.1.0"

__all__ = [
    "ErgmFlowError", "EstimationError", "ValidationError",
    "FlowNetwork", "NodeTable", "DyadCovariateSet", "SummaryReport",
    "build_network", "summarize",
    "REGIONS", "RACIAL_CATEGORIES",
    "TermSpec", "ModelSpec", "TERM_KINDS", "LINEAR_KINDS", "NONLINEAR_KINDS",
    "ChangeStats", "mutual_min_stat", "waypoint_flow_stat",
    "global_statistic", "statistic_vector", "conditional_profile",
    "dependence_pieces",
    "model_to_dict", "model_from_dict",
    "DyadSample", "FitResult", "stratified_dyad_sample",
    "census_sample", "conditional_log_pmf", "penalized_pseudo_loglik",
    "fit_mple", "pseudo_bic", "effect_multiplier",
    "ChainConfig", "ChainRun", "mcmc_simulate",
    "AdequacyReport", "adequacy_check", "KnockoutReport",
    "knockout_experiment", "expected_total_flow",
    "GroupFlowMatrix", "group_flow_matrix", "racial_dissimilarity",
    "scalar_dissimilarity",
    "build_dyad_covariates", "load_flows", "load_nodes", "load_distances",
    "write_flows_csv", "write_nodes_csv", "write_distances_csv",
    "synthetic_generate", "DEFAULT_COVARIATE_DISTRIBUTIONS",
    "__version__",
]
