"""Countable Markov shift diagnostics.

Weighted periodic-orbit sums, Gurevich-type pressure estimates, strong
positive recurrence and contraction diagnostics, entropy-at-infinity
profiles, and the bouquet example families, with a batch CLI.  The
enumerative oracles are in cmshift.oracle, which this package never imports.
"""

from .families import (BouquetBuild, BouquetSpec, FiniteTail, GeometricTail,
                       PowerTail, TauSpec, UnknownTail, build_bouquet,
                       build_preset, htop_solve, normalizing_C, preset_names,
                       zeta)
from .infinity import (CountB, InfinityProfile, count_B, delta_profile,
                       hinf_profile, profile_pair)
from .potential import (BirkhoffValue, InadmissibleWordError, Potential,
                        PotentialError, birkhoff_sum, connector_constant)
from .shift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                    LoopCountFamily, LoopVertex, Plain, Root, ShiftError,
                    TransitionSystem, UnknownStateError, Word, f_property_count,
                    is_admissible, shortest_connector)
from .thermo import (ChiPerResult, CrcProfile, InducedPressure, PartitionSums,
                     PressureEstimate, RecurrenceClass, RenewalSeries,
                     SprVerdict, Witness, chi_per, condition_witness_search,
                     crc_profile, partition_sums_renewal,
                     partition_sums_transfer, pressure_estimate, spr_check,
                     ucs_check)

__version__ = "0.1.0"
