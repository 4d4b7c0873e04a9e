"""A topology builder's seed is checked, by name, before anything is built.

``build_live_federation`` handed ``seed`` straight to
``numpy.random.default_rng``.  ``seed=None`` drew operating
system entropy, so two calls built two different federations; ``-1``
failed inside numpy ("expected non-negative integer") and ``2.0`` with a
``SeedSequence`` ``TypeError``, neither naming the field; ``True`` was
taken as 1.  The builder now refuses such a seed as ``seed``, and so
does the stream it draws from.
"""

import numpy as np
import pytest

from repro.netsim.delaymodels import Pcg64Stream
from repro.scenarios.topologies import build_live_federation

BAD_SEEDS = [None, -1, 2.0, True, "7", 2**64 + 0.5]

BUILDERS = {
    "live_federation": lambda seed: build_live_federation(8, seed=seed),
    "stream": Pcg64Stream,
}


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_a_seed_that_is_not_a_non_negative_int_is_refused_by_name(build, seed):
    with pytest.raises(ValueError, match=r"^seed must be an int >= 0, got "):
        BUILDERS[build](seed)


def test_a_seed_builds_the_same_federation_every_time():
    for seed in (0, 7, 2**64 + 5):
        first = build_live_federation(8, seed=seed).pair_distance_ms
        assert build_live_federation(8, seed=seed).pair_distance_ms == first
    assert (
        build_live_federation(8, seed=np.int64(7)).pair_distance_ms
        == build_live_federation(8, seed=7).pair_distance_ms
    )
