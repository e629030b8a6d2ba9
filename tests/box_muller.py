"""The bootstrap multipliers' formula in plain numpy, one call over a block: the tests' reference."""

import math

import numpy as np

# the largest radius: the uniform (hi + 1/2) 2^-32 is at least 2^-33
RADIUS_MAX = math.sqrt(66.0 * math.log(2.0))

# How far a float32 multiplier may sit from the float64 one of the same raw
# output: the angle rounds three times (the low bits, the step, the product)
# at up to 2 pi, the cosine errs by up to two ulps of one, and the product
# rounds once more, each times a radius of at most RADIUS_MAX.
SINGLE_GAP = RADIUS_MAX * (3.0 * 2.0 * math.pi + 3.0) * 2.0 ** -24


def box_muller(gen, shape, dtype=np.float64) -> np.ndarray:
    """``shape`` multipliers drawn from ``gen`` in one call, in ``dtype``.

    One raw Philox output ``r`` per multiplier: the radius
    ``sqrt(-2 log((hi + 1/2) 2^-32))`` of its high 32 bits in float64, times
    ``cos(2 pi lo 2^-32)`` of its low 32 bits in ``dtype``, rounded once.
    """
    kind = np.dtype(dtype).type
    r = gen.bit_generator.random_raw(shape)
    radius = np.sqrt(-2.0 * np.log(((r >> 32) + 0.5) * 2.0 ** -32))
    angle = (r & 0xFFFF_FFFF).astype(kind) * kind(2.0 * math.pi * 2.0 ** -32)
    return (radius * np.cos(angle)).astype(kind)
