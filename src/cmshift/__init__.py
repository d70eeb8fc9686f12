"""Countable Markov shift diagnostics.

Weighted periodic-orbit sums, Gurevich-type pressure estimates, strong
positive recurrence and contraction diagnostics, entropy-at-infinity
profiles, and the bouquet example families, with a batch CLI.
"""

from .families import (BouquetBuild, BouquetRealizationError, BouquetSpec,
                       FiniteTail, GeometricTail, PowerTail, TauSpec,
                       UnknownTail, build_bouquet, build_preset, htop_solve,
                       normalizing_C, preset_names, zeta)
from .infinity import (CountB, InfinityProfile, bouquet_hinf_oracle, count_B,
                       count_B_bruteforce, delta_profile, hinf_profile,
                       profile_pair)
from .potential import (BirkhoffValue, InadmissibleWordError, Potential,
                        PotentialError, birkhoff_sum, connector_constant)
from .shift import (ROOT, BouquetShift, ConnectorNotFound, EnumerationRefusal,
                    FiniteShift, LoopCountFamily, LoopVertex, Plain, Root,
                    ShiftError, TransitionSystem, UnknownStateError, Word,
                    enumerate_words, f_property_count, is_admissible,
                    periodic_points, shortest_connector)
from .thermo import (ChiPerResult, CrcProfile, InducedPressure, InducedSystem,
                     PartitionSums, PressureEstimate, RecurrenceClass,
                     SprVerdict, Witness, analytic_pressure, chi_per,
                     condition_witness_search, crc_profile,
                     induced_pressure, induced_system,
                     partition_sums_bruteforce, partition_sums_renewal,
                     partition_sums_transfer, pressure_estimate,
                     recurrence_classify, spr_check, ucs_check)

__version__ = "0.1.0"
