"""Print the config seeds the cli-verify workload draws from.

    python3 benchmark/config_seeds.py [COUNT]

The CLI's hecke suite checks degree conservation on five label pairs that
it samples from its config seed.  For about a third of the seeds no product
meets tau = (2,-2), so that process skips a 6 s left-coset sweep.  A
benchmark drawing arbitrary config seeds would mix two amounts of work; the
cli-verify workload therefore draws its config seeds from those listed in
expected.json, which all run the sweep.  This script finds them: it replays
the CLI's field and hecke suites for each candidate seed and stops at the
first request for the cosets of tau = (2,-2).
"""

import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from heckelab import cli, hecke  # noqa: E402
from heckelab.matgrp import CartanDatum  # noqa: E402
from workloads import FLAGSHIP  # noqa: E402

LARGE = CartanDatum((2, -2))


class _Sweep(Exception):
    pass


def sweeps_large_tau(seed: int) -> bool:
    """Does ``verify --suite all`` with this config seed need the cosets of
    tau = (2,-2)?  Only its degree check can ask for them."""
    cfg = cli.RunConfig.from_dict(dict(FLAGSHIP, window=1, seed=seed))
    rng = random.Random(cfg.seed)
    cli._suite_field(cfg, rng, [])
    original = hecke.HeckeAlgebra._ntau_cosets

    def guarded(self, tau):
        if tau == LARGE:
            raise _Sweep
        return original(self, tau)

    hecke.HeckeAlgebra._ntau_cosets = guarded
    try:
        cli._suite_hecke(cfg, rng, [])
    except _Sweep:
        return True
    finally:
        hecke.HeckeAlgebra._ntau_cosets = original
    return False


def main(count: int) -> None:
    seeds = []
    candidate = 0
    while len(seeds) < count:
        candidate += 1
        if sweeps_large_tau(candidate):
            seeds.append(candidate)
    print(json.dumps(seeds))
    print(f"{count} of the first {candidate} seeds sweep tau = (2,-2)", file=sys.stderr)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
