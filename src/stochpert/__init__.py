"""stochpert: perturbation theory for stochastic operators on finite
product spaces.

The package provides, in dependency order:

``numerics``
    dense simplex linear programming, disk-shaped spectral regions,
    centrosymmetric spectra, matrix exponential, Kronecker form of the
    Sylvester map;
``model``
    3-state probabilistic cellular automata on finite graphs and their
    eps-parameterized operator families;
``dobrushin``
    site-Lipschitz seminorm, the zero-charge measure norm (primal and
    polar-generator routes), tangent operator norms, the dependency-matrix
    ergodicity certificate, and stationary sensitivity;
``sylvester``
    Sylvester solvers and separation bounds;
``projection``
    spectral projections, their tangent derivative, and their continuation
    along an operator family, one ordered Schur form per node;
``perturb``
    transport of the image frame along the projection and the exact and
    first/second-order effective reduced dynamics;
``cli``
    the ``stochpert`` command with JSON/CSV reports.
"""

from .errors import ConfigError, DomainError, NumericalError, StochpertError
from .numerics import (DEFAULT_TOLS, Disk, LinearProgram, LpResult,
                       Tolerances, expm, lp_solve, sylvester_kron_matrix)
from .model import (MINUS, PLUS, ZERO, PcaModel, PerturbationFamily,
                    SiteGraph, all_configs, apply_function, apply_measure,
                    assemble_operator, config_index, delta_measure,
                    family_at_zero, index_config, model_from_json,
                    three_state_row, validate_stochastic)
from .dobrushin import (DependencyReport, ProductMetric, StarNorm, ZNorm,
                        dependency_matrix, dobrushin_distance, f_seminorm,
                        polar_generators, site_lipschitz,
                        stationary_sensitivity, star_norm, z_norm)
from .sylvester import (SepReport, sep_bound_ct, sep_bound_discrete,
                        sep_brute, solve_dense, solve_integral, solve_series)
from .projection import (BlockFrame, ContinuationResult, GapReport,
                         PathPoint, Projection, continue_projection,
                         derivative, gap_report, phi, spectral_projection,
                         tangent_split)
from .perturb import (ReducedOperator, block_diagonal_part,
                      effective_operator, reduced_basis, second_order_term,
                      transport_image, two_state_row)

__version__ = "0.1.0"
