"""Disordered copolymer with adsorption: exact quenched partition
functions via a renewal dynamic program, exact path sampling, and
localized-phase estimators."""

__version__ = "0.1.0"

from .disorder import (DisorderLaw, DisorderSample, PathRng,
                       disorder_from_arrays, freeze_zero_disorder,
                       sample_disorder)
from .errors import ConfigError, GuardError, NumericsError
from .kernel import (KernelKind, KernelSpec, ReturnKernel, build_kernel,
                     build_powerlaw_kernel, build_srw_kernel)
from .observables import (ContactProfile, ExcursionLaw, PathSample,
                          contact_profile, excursion_cover, excursion_law,
                          joint_contact_probability, log_z_gradients,
                          max_excursion, sample_path, ursell,
                          ursell_from_tables)
from .partition import (ModelParams, PartitionTables, excursion_log_weight,
                        forward_tables, log_partition_curve,
                        log_partition_curves, log_zeta, segment_tables,
                        single_excursion_log_lower_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
