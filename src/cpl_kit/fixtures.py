"""Seeded synthetic fixtures.

Each generator returns a Dataset with a fully reproducible draw; the CLI can
materialize them as CSV files. The headline fixture is ``maxleak_pair``: a
two-attribute table sampled from a 4x4 joint whose first two conditioning
rows have disjoint support, so the pair reads as weakly correlated under
symmetric metrics while one leakage direction attains the full neighbor
budget.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data_model import Alphabet, Dataset, write_csv
from .rng import STAGE_FIXTURE, derive_rng

#: Joint table of the maximal-leakage-under-weak-correlation pair.
MAXLEAK_JOINT = np.array([
    [0.20, 0.00, 0.00, 0.00],
    [0.00, 0.20, 0.00, 0.00],
    [0.10, 0.15, 0.03, 0.02],
    [0.10, 0.15, 0.03, 0.02],
])


def _symbols(k: int) -> Alphabet:
    return Alphabet(tuple(f"s{i}" for i in range(k)))


def _pair_schema(k_a: int, k_b: int) -> tuple:
    return (("a", _symbols(k_a)), ("b", _symbols(k_b)))


def sample_pair_from_joint(joint: np.ndarray, n: int, rng: np.random.Generator,
                           names: tuple[str, str] = ("a", "b")) -> Dataset:
    """Draw n records of a two-attribute dataset from a joint table."""
    joint = np.asarray(joint, dtype=np.float64)
    m, t = joint.shape
    flat = joint.ravel() / joint.sum()
    codes = rng.choice(m * t, size=n, p=flat)
    records = np.column_stack([codes // t, codes % t])
    schema = ((names[0], _symbols(m)), (names[1], _symbols(t)))
    return Dataset(schema, records)


def maxleak_pair(n: int = 100_000, seed: int = 0) -> Dataset:
    return sample_pair_from_joint(MAXLEAK_JOINT, n, derive_rng(seed, STAGE_FIXTURE, 0))


def independent_pair(n: int = 50_000, seed: int = 0, k: int = 2) -> Dataset:
    rng = derive_rng(seed, STAGE_FIXTURE, 1)
    records = np.column_stack([rng.integers(0, k, n), rng.integers(0, k, n)])
    return Dataset(_pair_schema(k, k), records)


def perfect_copy(n: int = 50_000, seed: int = 0, k: int = 4) -> Dataset:
    rng = derive_rng(seed, STAGE_FIXTURE, 2)
    a = rng.integers(0, k, n)
    return Dataset(_pair_schema(k, k), np.column_stack([a, a]))


def noisy_copy(n: int = 50_000, seed: int = 0, k: int = 4, flip: float = 0.2) -> Dataset:
    """Second column equals the first except for a uniform resample with
    probability ``flip``; every joint cell has positive mass."""
    rng = derive_rng(seed, STAGE_FIXTURE, 3)
    a = rng.integers(0, k, n)
    b = np.where(rng.random(n) < flip, rng.integers(0, k, n), a)
    return Dataset(_pair_schema(k, k), np.column_stack([a, b]))


def _mix_with_latent(latent: np.ndarray, k: int, weight: float,
                     rng: np.random.Generator) -> np.ndarray:
    fresh = rng.integers(0, k, latent.shape[0])
    return np.where(rng.random(latent.shape[0]) < weight, latent % k, fresh)


def weak_ten(n: int = 30_000, seed: int = 0, n_attrs: int = 10, mix: float = 0.08) -> Dataset:
    """n_attrs binary attributes sharing a faint latent component; every
    pairwise conditional ratio stays close to 1."""
    rng = derive_rng(seed, STAGE_FIXTURE, 4)
    latent = rng.integers(0, 2, n)
    cols = [_mix_with_latent(latent, 2, mix, rng) for _ in range(n_attrs)]
    schema = tuple((f"w{j}", _symbols(2)) for j in range(n_attrs))
    return Dataset(schema, np.column_stack(cols))


def _flip_binary(base: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    return np.where(rng.random(base.shape[0]) < p, 1 - base, base)


def mixed_five(n: int = 40_000, seed: int = 0) -> Dataset:
    """Five attributes spanning strong, moderate, zero-linear and absent
    correlation: a binary chain a/b/c, an independent 4-ary x, and f, a
    deterministic function of x whose Pearson coefficient with x is zero."""
    rng = derive_rng(seed, STAGE_FIXTURE, 5)
    a = rng.integers(0, 2, n)
    b = _flip_binary(a, 0.10, rng)
    c = _flip_binary(a, 0.35, rng)
    x = rng.integers(0, 4, n)
    f = ((x == 0) | (x == 3)).astype(np.int64)
    schema = (("a", _symbols(2)), ("b", _symbols(2)), ("c", _symbols(2)),
              ("x", _symbols(4)), ("f", _symbols(2)))
    return Dataset(schema, np.column_stack([a, b, c, x, f]))


def chain_five(n: int = 20_000, seed: int = 0) -> Dataset:
    """Binary chain with decaying correlation plus one independent column;
    all pairwise conditionals are strictly positive."""
    rng = derive_rng(seed, STAGE_FIXTURE, 6)
    a = rng.integers(0, 2, n)
    b = _flip_binary(a, 0.15, rng)
    c = _flip_binary(b, 0.25, rng)
    d = _flip_binary(c, 0.30, rng)
    e = rng.integers(0, 2, n)
    schema = tuple((name, _symbols(2)) for name in "abcde")
    return Dataset(schema, np.column_stack([a, b, c, d, e]))


def latent_five(n: int = 20_000, seed: int = 0) -> Dataset:
    """Five attributes of mixed alphabet sizes tied to a 4-ary latent;
    all pairwise conditionals are strictly positive."""
    rng = derive_rng(seed, STAGE_FIXTURE, 7)
    latent = rng.integers(0, 4, n)
    x0 = _mix_with_latent(latent, 4, 0.75, rng)
    x1 = _flip_binary((latent >= 2).astype(np.int64), 0.10, rng)
    x2 = _mix_with_latent(np.minimum(latent, 2), 3, 0.80, rng)
    x3 = _mix_with_latent(latent, 4, 0.60, rng)
    x4 = _flip_binary(latent % 2, 0.20, rng)
    schema = (("x0", _symbols(4)), ("x1", _symbols(2)), ("x2", _symbols(3)),
              ("x3", _symbols(4)), ("x4", _symbols(2)))
    return Dataset(schema, np.column_stack([x0, x1, x2, x3, x4]))


#: name -> (generator, default sample count)
FIXTURES = {
    "maxleak_pair": (maxleak_pair, 100_000),
    "independent_pair": (independent_pair, 50_000),
    "perfect_copy": (perfect_copy, 50_000),
    "noisy_copy": (noisy_copy, 50_000),
    "weak_ten": (weak_ten, 30_000),
    "mixed_five": (mixed_five, 40_000),
    "chain_five": (chain_five, 20_000),
    "latent_five": (latent_five, 20_000),
}


def generate_fixtures(out_dir, seed: int = 0, samples: dict | None = None) -> dict:
    """Write every fixture as CSV plus a manifest of seeds and row counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = samples or {}
    manifest = {"seed": seed, "files": {}}
    for name, (gen, default_n) in FIXTURES.items():
        n = int(samples.get(name, default_n))
        d = gen(n=n, seed=seed)
        path = out / f"{name}.csv"
        write_csv(d, path)
        manifest["files"][name] = {"path": path.name, "rows": n,
                                   "attributes": list(d.attribute_names)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                       encoding="utf-8")
    return manifest
