"""Two-sided factorization of a generalized Schur function.

Builds the scalar function theta = b_a * b_c / b_w (two inner factors
over one denominator factor, so one negative square), factors it on both
sides, and confirms the reconstruction numerically at a few points.
"""

import numpy as np

from pontsys import (
    as_transfer,
    blaschke_potapov_factor,
    cascade,
    invert_system,
    kl_factorize_function,
    negative_squares_estimate,
)


def main():
    inner = cascade(blaschke_potapov_factor(0.2, 1.0, [1.0], 1),
                    blaschke_potapov_factor(-0.35 + 0.2j, 1.0, [1.0], 1))
    denom = invert_system(blaschke_potapov_factor(0.5, 1.0, [1.0], 1))
    theta = as_transfer(cascade(inner, denom))

    est = negative_squares_estimate(theta)
    print(f"negative squares: {est.estimate} "
          f"(route {est.route}, poles in disc {est.pole_count})")

    res = kl_factorize_function(theta)
    print(f"Blaschke degree: {res.kappa}")
    print(f"reconstruction residuals: right {res.right_residual:.2e}, "
          f"left {res.left_residual:.2e}")

    for z in (0.0, 0.3 - 0.2j, -0.6j):
        lhs = theta(z)[0, 0]
        rhs = (res.schur_right(z) @ np.linalg.inv(res.blaschke_right(z)))[0, 0]
        print(f"  theta({z: .2f}) = {lhs: .6f}   "
              f"S_r B_r^-1 = {rhs: .6f}   diff {abs(lhs - rhs):.1e}")


if __name__ == "__main__":
    main()
