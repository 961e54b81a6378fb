"""Seeded sample plans against the per-candidate loop they replace."""

import numpy as np
import pytest

from pontsys.exceptions import InputError
from pontsys.indefinite import DEFAULT_TOL
from pontsys.sampling import disc_points


def _loop_disc_points(n, seed=0, radius=0.95, exclude=(), min_dist=None):
    """Reference: the rejection loop disc_points ran one candidate at a
    time, verbatim."""
    if min_dist is None:
        min_dist = 10 * DEFAULT_TOL.rank_tol
    rng = np.random.default_rng(seed)
    exclude = np.asarray(list(exclude), dtype=complex)
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * max(n, 1):
            raise InputError("could not place disc samples away from excluded points")
        z = (rng.random() ** 0.5) * radius * np.exp(2j * np.pi * rng.random())
        if exclude.size and np.min(np.abs(exclude - z)) <= min_dist:
            continue
        out.append(z)
    return np.array(out)


def _exclusions():
    rng = np.random.default_rng(17)
    return {
        "none": ((), None),
        "poles": (0.9 * np.exp(2j * np.pi * rng.random(6)), 1e-4),
        # wide disks around a few points reject a large share of candidates
        "wide": (0.5 * np.exp(2j * np.pi * rng.random(3)), 0.3),
        "many": (rng.random(40) * np.exp(2j * np.pi * rng.random(40)), 0.05),
    }


class TestDiscPoints:
    @pytest.mark.parametrize("name", list(_exclusions()))
    @pytest.mark.parametrize("n", [0, 1, 6, 24, 64, 257, 500])
    def test_plans_are_bitwise_the_loop(self, name, n):
        exclude, min_dist = _exclusions()[name]
        for seed in (0, 1, 5, 977 * 3 + 2, 2 ** 40 + 11):
            for radius in (0.8, 0.93, 0.95):
                got = disc_points(n, seed=seed, radius=radius, exclude=exclude,
                                  min_dist=min_dist)
                want = _loop_disc_points(n, seed=seed, radius=radius,
                                         exclude=exclude, min_dist=min_dist)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_empty_plan_is_never_refused(self):
        assert disc_points(0).shape == (0,)
        assert disc_points(0, exclude=[0.0], min_dist=2.0).shape == (0,)

    @pytest.mark.parametrize("n", [1, 3])
    def test_refusal_when_every_candidate_is_excluded(self, n):
        # a disk of radius 2 around the origin covers the whole plan disc
        for draw in (disc_points, _loop_disc_points):
            with pytest.raises(InputError, match="could not place"):
                draw(n, seed=4, exclude=[0.0], min_dist=2.0)

    def test_refusal_budget_is_the_loop_one(self):
        # exactly 1000 n candidates are tried: a one-point plan whose point
        # is the 1000th candidate is placed, and refused once that
        # candidate is excluded too
        rng = np.random.default_rng(9)
        u = rng.random(2 * 1000)
        z = np.array([x ** 0.5 for x in u[0::2]]) * 0.95 * np.exp(2j * np.pi * u[1::2])
        # every candidate but the last sits on an excluded point
        last = z[-1]
        far = np.abs(z - last) > 1e-3
        exclude = z[far]
        assert far[:-1].all()
        got = disc_points(1, seed=9, exclude=exclude, min_dist=1e-9)
        assert got.tobytes() == _loop_disc_points(
            1, seed=9, exclude=exclude, min_dist=1e-9).tobytes()
        assert got[0] == last
        for draw in (disc_points, _loop_disc_points):
            with pytest.raises(InputError, match="could not place"):
                draw(1, seed=9, exclude=z, min_dist=1e-9)
