"""Small shared utilities: seeded RNG helpers."""

from repro.utils.rng import RngFactory, derive_seed, new_rng

__all__ = [
    "RngFactory",
    "derive_seed",
    "new_rng",
]
