"""randcorr: random bipartite correlation matrices and their norms.

Samples bi-orthogonally invariant random matrices, brackets their quantum
(factorization) and classical (projective) norms with re-verifiable
certificates, inverts the cubic Stieltjes law of normalized Gaussian
products, and packages the quantitative separations as seeded, repeatable
experiments.
"""
from .errors import NumericalError, ValidationError
from .linalg import (SvdTriple, as_matrix, flatness_ratio, operator_norm,
                     read_matrix_csv, svd, trace_norm, write_matrix_csv)
from .sampling import (EnsembleSpec, SeedSpec, bi_invariant, gaussian,
                       gaussian_product, haar_orthogonal, splitmix64,
                       unit_rows_correlation)
from .norms import (KG_UPPER, BellFunctional, ConvexDecomposition,
                    NormBracket, SignPair, bell_functional_from_svd,
                    classical_lower_bound, classical_upper_bound,
                    gamma2_bracket, gamma2_oracle, infty_to_one_exact,
                    infty_to_one_heuristic, quantum_classical_gap,
                    tau_gap_bound)
from .spectral import (EmpiricalSpectrum, SpectralLaw, ac_support_edges,
                       alpha_threshold, c_alpha, density, empirical_spectrum,
                       ks_distance)
from .experiments import (ExperimentConfig, ExperimentReport, default_config,
                          run_experiment)

__version__ = "0.1.0"

__all__ = [
    "BellFunctional", "ConvexDecomposition", "EmpiricalSpectrum",
    "EnsembleSpec", "ExperimentConfig", "ExperimentReport", "KG_UPPER",
    "NormBracket", "NumericalError", "SeedSpec",
    "SignPair", "SpectralLaw", "SvdTriple", "ValidationError",
    "ac_support_edges", "alpha_threshold", "as_matrix",
    "bell_functional_from_svd", "bi_invariant", "c_alpha",
    "classical_lower_bound", "classical_upper_bound", "default_config",
    "density", "empirical_spectrum", "flatness_ratio", "gamma2_bracket",
    "gamma2_oracle", "gaussian", "gaussian_product",
    "haar_orthogonal", "infty_to_one_exact", "infty_to_one_heuristic",
    "ks_distance", "operator_norm", "quantum_classical_gap",
    "read_matrix_csv", "run_experiment", "splitmix64", "svd",
    "tau_gap_bound", "trace_norm", "unit_rows_correlation",
    "write_matrix_csv",
]
