"""Classify a handful of small systems and print their certificates.

Walks three systems through the metric classifier: a degree-one Blaschke
factor (conservative, minimal), its inversion through the unit disc
(conservative with a one-dimensional negative state), and a strictly
contractive random system that is passive and nothing more.
"""

import numpy as np

from pontsys import (
    SignatureSpace,
    blaschke_potapov_factor,
    classify,
    invert_system,
)
from pontsys.sampling import random_passive_colligation


def describe(name, system):
    cls = classify(system)
    print(f"{name}:")
    print(f"  state signature   (+{system.state.pos}, -{system.state.neg})")
    print(f"  operator kind     {cls.kind.value}")
    print(f"  controllable      {cls.controllable}")
    print(f"  observable        {cls.observable}")
    print(f"  simple            {cls.simple}")
    print(f"  index preserving  {cls.krylov.index_preserving} "
          f"(kappa={system.kappa})")
    print()


def main():
    factor = blaschke_potapov_factor(0.4 + 0.1j, 1.0, [1.0], 1)
    describe("Blaschke factor b_{0.4+0.1i}", factor)
    describe("inverted factor 1/b", invert_system(factor))

    rng = np.random.default_rng(3)
    loose = random_passive_colligation(rng, SignatureSpace(3, 0), 2, 2,
                                       strict=0.4)
    describe("strict random contraction", loose)


if __name__ == "__main__":
    main()
