"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit seed. Independent
units of work (per-attribute perturbation, per-attribute decoding, each
permutation surrogate, fixture generation) derive their own generator from
``(seed, stage, index...)`` so results are reproducible and independent of
evaluation order.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

# Stage tags used as the first spawn-key component.
STAGE_PERTURB = 0
STAGE_DECODE = 1
STAGE_SURROGATE = 2
STAGE_FIXTURE = 3


def _integer(value, what: str) -> int:
    """``value``, a Python or numpy integer, as an int; any other value,
    a bool or a float included, is an ``InputError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the work unit identified by ``key``.

    Distinct ``(seed, key)`` pairs yield statistically independent streams;
    equal pairs yield identical streams.
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
