"""Test settings shared by the whole suite."""

from hypothesis import settings

# Tier-1 must not gate on wall time: the hosts that run it vary in speed by
# a third or more, so Hypothesis's per-example deadline is switched off.
settings.register_profile("acaw", deadline=None)
settings.load_profile("acaw")
