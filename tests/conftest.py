"""Shared hypothesis settings: one profile without a per-example deadline,
as the DP oracles' run times vary with the drawn sizes."""

from hypothesis import settings

settings.register_profile("cmshift", deadline=None)
settings.load_profile("cmshift")
