"""Polynomial mutation (Deb & Goyal 1996), integer-adapted.

Each gene mutates independently with probability ``rate``; the
perturbation follows the polynomial distribution with index eta over
the full gene range ``[0, m-1]``, then rounds and clips back to a valid
server id.  With the Table III settings (rate 0.20, eta 15) mutations
are frequent but mostly local.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import IntArray, SeedLike
from repro.utils.rng import as_generator

__all__ = ["polynomial_mutation"]


def polynomial_mutation(
    genomes: IntArray,
    n_servers: int,
    rate: float = 0.20,
    eta: float = 15.0,
    seed: SeedLike = None,
) -> IntArray:
    """Mutate a genome matrix in a single vectorized pass.

    Parameters
    ----------
    genomes:
        (pop, n) int matrix (not modified; a new matrix is returned).
    n_servers:
        Gene upper bound m (exclusive).
    rate:
        Per-gene mutation probability (Table III: 0.20).
    eta:
        Distribution index (Table III: 15).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    if genomes.ndim != 2:
        raise ValidationError(f"genomes must be 2-D, got {genomes.shape}")
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"rate must lie in [0, 1], got {rate}")
    if n_servers < 1:
        raise ValidationError(f"n_servers must be >= 1, got {n_servers}")
    rng = as_generator(seed)

    if n_servers == 1:
        return genomes.copy()

    lo, hi = 0.0, float(n_servers - 1)
    span = hi - lo
    # Both draws cover every gene, so the generator advances by the same
    # amount whatever the rate; only the mutating genes use theirs.
    draws = rng.random(genomes.shape)
    mutate = np.flatnonzero(draws < rate)
    u = np.take(rng.random(out=draws), mutate)
    x = np.take(genomes, mutate).astype(np.float64)

    # Standard bounded polynomial mutation (Deb's delta-q formulation).
    mut_pow = 1.0 / (eta + 1.0)
    below = u < 0.5
    xy = np.where(below, 1.0 - (x - lo) / span, 1.0 - (hi - x) / span)
    with np.errstate(invalid="ignore"):
        tail = xy ** (eta + 1.0)
        val = np.where(
            below,
            2.0 * u + (1.0 - 2.0 * u) * tail,
            2.0 * (1.0 - u) + 2.0 * (u - 0.5) * tail,
        )
        root = val**mut_pow
    deltaq = np.where(below, root - 1.0, 1.0 - root)

    out = np.clip(genomes, 0, n_servers - 1)
    mutated = np.rint(x + deltaq * span).astype(np.int64)
    np.put(out, mutate, np.clip(mutated, 0, n_servers - 1, out=mutated))
    return out
