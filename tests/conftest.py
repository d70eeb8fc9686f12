"""Shared hypothesis settings: one profile without a per-example deadline,
as the DP oracles' run times vary with the drawn sizes.  Shared inputs: the
bouquets `cmshift oracle` enumerates at its own size."""

import pytest
from hypothesis import settings

from cmshift import build_preset
from cmshift.specio import parse_potential_spec, parse_shift_spec

settings.register_profile("cmshift", deadline=None)
settings.load_profile("cmshift")

# the presets preset-sweep and CI run the oracle on, at its truncations, and
# CI's ones5 spec, whose default -1.0 sends its sums through the transfer DP
ORACLE_INPUTS = [(p, L) for p in ("renewal-ones", "sec52-entry", "sec52-mid", "sec52-exit")
                 for L in (5, 6)] + [("ones5", 5)]
ONES5 = ({"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 5},
          {"memory": 2, "default": -1.0, "scheme": "bouquet_entry",
           "scheme_params": {"C": 0.5, "beta": 2.0}})


@pytest.fixture
def oracle_input():
    """The system and potential of an ORACLE_INPUTS case."""
    def build(name, L):
        if name == "ones5":
            T = parse_shift_spec(ONES5[0])
            return T, parse_potential_spec(ONES5[1], T)
        b = build_preset(name, truncate_len=L)
        return b.system, b.potential
    return build
