"""Spectral laboratory for renormalized mean-field SPDE dynamics on the torus."""

from .torus import (Field, PathField, TorusGrid, dealiased, make_grid,
                    make_times, pointwise_product, read_pfld, write_pfld)
from .littlewood_paley import DyadicPartition, besov_norm, dyadic_blocks
from .bony import corrector, para, resonant
from .heat import duhamel_step, etd_step, semigroup
from .noise import (EnhancedNoise, NoiseSpec, StoredNoise, cross_resonant,
                    enhance, final_slice, mean_field_enhance, noise_slices,
                    power_law_multiplier, renorm_constant)
from .interactions import (EmpiricalMeasure, InteractionSpec, eval_f, eval_g,
                           eval_partial, make_interaction, make_kernel)
from .paracontrolled import Paracontrolled
from .solver import (ExplosionError, FixedPointError, PicardError,
                     SolveConfig, default_dt, solve_mean_field,
                     solve_paracontrolled, solve_particle_system,
                     solve_renormalized)
from .measures import (chaos_metric, ground_distance_matrix,
                       subsample_ensemble, wasserstein)
from .experiments import (ConfigError, ExperimentConfig, parse_config,
                          run_experiment)

__version__ = "0.1.0"
