"""Spectral laboratory for renormalized mean-field SPDE dynamics on the torus."""

from .torus import (Field, PathField, TorusGrid, make_grid, make_times,
                    pointwise_product, read_pfld, write_pfld)
from .littlewood_paley import (DyadicPartition, RegularityParams, besov_norm,
                               dyadic_blocks, lp_project,
                               parabolic_holder_norm)
from .bony import corrector, modified_para, para, resonant
from .heat import duhamel, etd_step, semigroup
from .noise import (EnhancedNoise, NoiseSpec, cross_resonant, enhance,
                    mean_field_enhance, mollify, power_law_multiplier,
                    renorm_constant, resolved_eps, sample_noise)
from .interactions import (EmpiricalMeasure, InteractionSpec, eval_f, eval_g,
                           eval_partial, make_interaction, make_kernel)
from .paracontrolled import (Paracontrolled, decompose, paralinearize_f,
                             pc_product, reconstruct)
from .solver import (ExplosionError, FixedPointError, PicardError,
                     SolveConfig, default_dt,
                     solve_additive_frozen, solve_additive_mckean,
                     solve_mean_field, solve_paracontrolled,
                     solve_particle_system, solve_renormalized)
from .measures import (chaos_metric, ground_distance_matrix,
                       subsample_ensemble, wasserstein)
from .experiments import (ConfigError, ExperimentConfig, parse_config,
                          run_experiment)

__version__ = "0.1.0"
