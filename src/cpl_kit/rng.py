"""Deterministic random-stream derivation.

All randomness in the package flows from a single 64-bit seed. Independent
units of work (per-attribute perturbation, per-attribute decoding, each
permutation surrogate, fixture generation) derive their own generator from
``(seed, stage, index...)`` so results are reproducible and independent of
evaluation order.
"""
from __future__ import annotations

import numpy as np

from .data_model import _integer
from .errors import InputError

# Stage tags used as the first spawn-key component.
STAGE_PERTURB = 0
STAGE_DECODE = 1
STAGE_SURROGATE = 2
STAGE_FIXTURE = 3


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the work unit identified by ``key``.

    Distinct ``(seed, key)`` pairs yield statistically independent streams;
    equal pairs yield identical streams.
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    key = tuple(_integer(part, "stream key") for part in key)
    if any(part < 0 for part in key):
        raise InputError(f"stream keys must be nonnegative, got {key}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.default_rng(ss)
