"""Release acceptance suite: ten end-to-end gates at desk scale.

Every gate runs a seeded random family at the shipped default tolerances
and checks a contract of the library against an independent route where
one exists (eigen-oracles, boundary sampling, dual Krylov/Taylor
obstructions).  None of the bounds below are loosened from the package
defaults; the terminal summary prints one PASS/FAIL line per gate.

State dimensions stay at or below twelve and negative indices at or
below three throughout, in complex double precision.
"""

import functools
import time

import numpy as np

from _builders import identity_feedthrough, principal_angles
from pontsys.colligation import (
    Colligation,
    SystemKind,
    adjoint_system,
    classify,
    krylov_report,
    state_change,
    transfer_eval,
    weak_similarity,
)
from pontsys.indefinite import (
    DEFAULT_TOL,
    SignatureSpace,
)
from pontsys.julia import julia_operator
from pontsys.products import (
    cascade,
    invariant_fundamental_decompositions,
    obstruction_controllable,
    obstruction_observable,
    stability_classify,
)
from pontsys.sampling import disc_points, random_j_contraction, random_passive_colligation
from pontsys.schur import (
    as_transfer,
    blaschke_potapov_factor,
    blaschke_product,
    boundary_behavior,
    canonical_coisometric_realization,
    defect,
    invert_system,
    kl_factorize_function,
    negative_squares_estimate,
)

_T0 = time.perf_counter()


def _separated_points(rng, count, taken, lo, hi, gap=0.08):
    """Draw disc points in the modulus band [lo, hi], pairwise separated
    from each other and from every point already in `taken`."""
    pts = []
    guard = 0
    while len(pts) < count:
        guard += 1
        assert guard < 10_000, "point sampler failed to separate"
        z = (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - w) >= gap for w in list(taken) + pts):
            pts.append(complex(z))
    return pts


def _scalar_inner(rng, zeros):
    """Scalar finite Blaschke product with the given zeros (identity if none)."""
    if not zeros:
        return identity_feedthrough(1)
    factors = [
        blaschke_potapov_factor(a, np.exp(2j * np.pi * rng.random()), [1.0], 1)
        for a in zeros
    ]
    return blaschke_product(factors)


def _scalar_inverse_blaschke(zeros):
    """Conservative negative-state realization of 1 / (Blaschke product)."""
    sys = None
    for b in zeros:
        f = invert_system(blaschke_potapov_factor(b, 1.0, [1.0], 1))
        sys = f if sys is None else cascade(sys, f)
    return sys


@functools.lru_cache(maxsize=1)
def _mixed_family():
    """Fifty conservative scalar systems (inner product) * (inverse product).

    Entry i has negative index kappa = 1 + i mod 3 and an inner part of
    degree i mod 4; numerator zeros and denominator zeros are kept apart
    so every system is minimal and simple with exactly kappa poles in
    the open disc.  Denominator zeros keep modulus at least 0.3: the
    metric balance of the cascade realization degrades like the product
    of the inverse moduli, and the gates target well-posed desk-scale
    instances, not near-degenerate ones.
    """
    rng = np.random.default_rng(0)
    family = []
    for i in range(50):
        kappa = 1 + i % 3
        inner_deg = i % 4
        betas = _separated_points(rng, kappa, [], lo=0.3, hi=0.7)
        alphas = _separated_points(rng, inner_deg, betas, lo=0.0, hi=0.7)
        inv = _scalar_inverse_blaschke(betas)
        sys = inv if inner_deg == 0 else cascade(_scalar_inner(rng, alphas), inv)
        family.append((sys, kappa, tuple(alphas), tuple(betas)))
    return family


def test_criterion_01_julia_completions_are_metric_unitary():
    """200 random metric contractions complete to certified metric
    unitaries whose defect factors have trivial kernel."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for case in range(200):
        kappa = int(rng.integers(0, 3))
        dom = SignatureSpace(int(rng.integers(0, 9 - kappa)), kappa)
        cod = SignatureSpace(int(rng.integers(0, 9 - kappa)), kappa)
        strict = 0.0 if case % 3 else 0.25
        M = random_j_contraction(rng, dom, cod, strict=strict)
        ju = julia_operator(M, dom, cod)
        U = ju.operator
        ds, cs = ju.dom_signs, ju.cod_signs
        Ustar = ds[:, None] * U.conj().T * cs[None, :]
        left = np.linalg.norm(Ustar @ U - np.eye(ds.size), 2) if ds.size else 0.0
        right = np.linalg.norm(U @ Ustar - np.eye(cs.size), 2) if cs.size else 0.0
        assert left <= 1e-8, f"case {case}: left unitarity defect {left:.2e}"
        assert right <= 1e-8, f"case {case}: right unitarity defect {right:.2e}"
        for F in (ju.defect, ju.dual_defect):
            if F.shape[1]:
                smallest = np.linalg.svd(F, compute_uv=False)[-1]
                assert smallest > DEFAULT_TOL.rank_tol, (
                    f"case {case}: defect factor has numerical kernel")
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_cascade_transfer_is_multiplicative():
    """100 random passive cascades: the product transfer matches the
    pointwise product of the factor transfers on 50 disc samples."""
    rng = np.random.default_rng(0)
    for case in range(100):
        st1 = SignatureSpace(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        st2 = SignatureSpace(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        s1 = random_passive_colligation(rng, st1, m, q, strict=0.1)
        s2 = random_passive_colligation(rng, st2, q, p, strict=0.1)
        prod = cascade(s1, s2)
        lam = np.concatenate([np.linalg.eigvals(s1.A), np.linalg.eigvals(s2.A)])
        poles = [1.0 / l for l in lam if abs(l) > 1e-8]
        worst = 0.0
        for z in disc_points(50, seed=1000 + case, radius=0.9,
                             exclude=poles, min_dist=5e-2):
            T1 = transfer_eval(s1, z)
            T2 = transfer_eval(s2, z)
            T21 = transfer_eval(prod, z)
            ref = T2 @ T1
            err = np.linalg.norm(T21 - ref, 2) / max(1.0, np.linalg.norm(ref, 2))
            worst = max(worst, err)
        assert worst <= 1e-9, f"case {case}: multiplicativity error {worst:.2e}"


def test_criterion_03_function_factorization_round_trip():
    """50 mixed inner/inverse-Blaschke functions factor on both sides with
    Schur-certified quotients, recovered index, and tight reconstruction."""
    t0 = time.perf_counter()
    for idx, (sys, kappa, _, _) in enumerate(_mixed_family()):
        res = kl_factorize_function(as_transfer(sys))
        assert res.kappa == kappa, f"entry {idx}: recovered index {res.kappa}"
        assert res.blaschke_right.backing.state_dim == kappa
        assert res.blaschke_left.backing.state_dim == kappa
        for side in (res.schur_right, res.schur_left):
            est = negative_squares_estimate(side)
            assert est.stable and est.estimate == 0, (
                f"entry {idx}: quotient shows negative squares {est.estimate}")
            sig = float(np.nanmax(boundary_behavior(side).sigma_max))
            assert sig <= 1.0 + 1e-8, f"entry {idx}: boundary norm {sig:.10f}"
        assert res.right_residual <= 1e-7, (
            f"entry {idx}: right reconstruction {res.right_residual:.2e}")
        assert res.left_residual <= 1e-7, (
            f"entry {idx}: left reconstruction {res.left_residual:.2e}")
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_negative_squares_match_pole_counts():
    """Sampled kernel inertia recovers the disc pole multiplicity of the
    backing realization on the mixed family and on index-zero controls."""
    for idx, (sys, kappa, _, _) in enumerate(_mixed_family()):
        est = negative_squares_estimate(as_transfer(sys))
        assert est.estimate == kappa, (
            f"entry {idx}: estimated {est.estimate}, poles {kappa}")
        assert est.pole_count == kappa
        assert est.agrees is True
    rng = np.random.default_rng(11)
    for i in range(10):
        zeros = _separated_points(rng, 1 + i % 3, [], lo=0.0, hi=0.7)
        est = negative_squares_estimate(as_transfer(_scalar_inner(rng, zeros)))
        assert est.estimate == 0 and est.pole_count == 0 and est.agrees is True


def test_criterion_05_observability_loss_counterexample():
    """The worked two-channel example: a canonical coisometric observable
    factor cascaded with the inverted Blaschke factor loses observability,
    and the adjoint cascade loses controllability, with both obstruction
    routes (Krylov and Taylor) in agreement."""
    alpha = 0.5
    a_sys = blaschke_potapov_factor(0.0, 1.0, [1.0], 1)  # a(z) = z
    b_sys = blaschke_potapov_factor(alpha, 1.0, [1.0], 1)
    ab = cascade(a_sys, b_sys)
    rt = 1.0 / np.sqrt(2.0)
    n = ab.state_dim
    row = Colligation(
        ab.state, 2, 1,
        ab.A, np.hstack([ab.B * rt, np.zeros((n, 1))]),
        ab.C, np.hstack([ab.D * rt, [[rt]]]))
    model = canonical_coisometric_realization(as_transfer(row))
    cls = classify(model)
    assert cls.kind == SystemKind.COISOMETRIC and cls.observable

    invb = invert_system(b_sys)
    obs = obstruction_observable(model, invb)
    assert obs.dimension >= 1, "product stayed observable"
    assert obs.agreement_residual <= 1e-8

    ctrl = obstruction_controllable(adjoint_system(invb), adjoint_system(model))
    assert ctrl.dimension >= 1, "adjoint product stayed controllable"
    assert ctrl.agreement_residual <= 1e-8

    assert krylov_report(cascade(model, invb)).observable is False
    assert krylov_report(
        cascade(adjoint_system(invb), adjoint_system(model))).controllable is False


def test_criterion_06_no_common_zeros_preserves_observability():
    """50 pairs (observable passive Hilbert system, minimal conservative
    inverse Blaschke chain) with the factor transfer certified nonzero at
    every denominator zero: the product has no observability obstruction."""
    rng = np.random.default_rng(0)
    made = 0
    attempts = 0
    while made < 50:
        attempts += 1
        assert attempts < 800, "family sampler stalled"
        npos = 1 + int(rng.integers(0, 3))
        m = 1 + int(rng.integers(0, 2))
        first = random_passive_colligation(
            rng, SignatureSpace(npos, 0), m, 1, strict=0.2)
        if not classify(first).observable:
            continue
        kappa = 1 + int(rng.integers(0, 2))
        betas = _separated_points(rng, kappa, [], lo=0.3, hi=0.7)
        if any(np.linalg.norm(transfer_eval(first, b), 2) < 0.05 for b in betas):
            continue
        inv = _scalar_inverse_blaschke(betas)
        inv_cls = classify(inv)
        assert inv_cls.kind == SystemKind.CONSERVATIVE and inv_cls.minimal
        rep = obstruction_observable(first, inv)
        assert rep.dimension == 0, (
            f"pair {made}: obstruction of dimension {rep.dimension}")
        assert rep.agreement_residual <= 1e-8
        made += 1


def test_criterion_07_invariant_fundamental_splits():
    """On the mixed conservative family both fundamental splits are
    certified invariant, the negative half is uniformly negative of
    dimension kappa, and it matches an independent eigenvector oracle for
    the spectrum outside the closed disc."""
    for idx, (sys, kappa, _, _) in enumerate(_mixed_family()):
        split_plus, split_minus = invariant_fundamental_decompositions(sys)
        for sp in (split_plus, split_minus):
            assert sp.invariance_residual <= 1e-9, (
                f"entry {idx}: invariance residual {sp.invariance_residual:.2e}")
            assert sp.Xminus.dim == kappa
            if kappa:
                top = float(np.max(np.linalg.eigvalsh(sp.Xminus.gram)))
                assert top < -DEFAULT_TOL.psd_tol, (
                    f"entry {idx}: negative half not uniformly negative")
        lam, V = np.linalg.eig(sys.A)
        sel = np.abs(lam) > 1.0
        assert int(np.sum(sel)) == kappa
        if kappa:
            ang = principal_angles(split_minus.Xminus.basis, V[:, sel])
            assert float(np.max(ang)) <= 1e-8, (
                f"entry {idx}: eigen-oracle angle {float(np.max(ang)):.2e}")


def _simple_conservative_mixes(count, seed):
    """Simple conservative scalar cascades mixing inner factors with
    zero to three inverse Blaschke factors."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n_inner = 1 + int(rng.integers(0, 3))
        n_inv = int(rng.integers(0, 4))
        betas = _separated_points(rng, n_inv, [], lo=0.3, hi=0.7)
        alphas = _separated_points(rng, n_inner, betas, lo=0.0, hi=0.7)
        sys = _scalar_inner(rng, alphas)
        if n_inv:
            sys = cascade(sys, _scalar_inverse_blaschke(betas))
        out.append(sys)
    return out


def test_criterion_08_stability_labels_match_boundary_flags():
    """30 simple conservative mixes: the stability label's forward zero
    matches the inner flag, its backward zero the co-inner flag, and the
    bistable label the two-sided flag, with no disagreements.

    At finite dimension a simple conservative system is minimal, so this
    family sits in the all-flags-true corner of the equivalences; the two
    sides are still produced by independent routes (restricted spectral
    radii against boundary defect sampling).
    """
    for idx, sys in enumerate(_simple_conservative_mixes(30, seed=3)):
        cls = classify(sys)
        assert cls.kind == SystemKind.CONSERVATIVE and cls.simple
        st = stability_classify(sys)
        bnd = boundary_behavior(as_transfer(sys))
        assert st.forward == bnd.inner, f"entry {idx}: forward/inner split"
        assert st.backward == bnd.co_inner, f"entry {idx}: backward/co-inner split"
        assert st.bistable == bnd.bi_inner, f"entry {idx}: bistable/bi-inner split"


def test_criterion_09_minimality_matches_defect_vanishing():
    """30 simple conservative rational systems: controllability agrees
    with vanishing of the left defect and observability with vanishing of
    the right defect, no disagreements.  The scalar outer factorization
    is then exercised where the defect is genuinely nonzero: the boundary
    residual stays within 1e-8 and the outer numerator has no roots in
    the open disc."""
    for idx, sys in enumerate(_simple_conservative_mixes(30, seed=5)):
        cls = classify(sys)
        d = defect(as_transfer(sys))
        assert cls.controllable == d.psi_is_zero, f"entry {idx}: left split"
        assert cls.observable == d.phi_is_zero, f"entry {idx}: right split"

    rng = np.random.default_rng(17)
    for i in range(10):
        npos = 1 + int(rng.integers(0, 3))
        s = random_passive_colligation(
            rng, SignatureSpace(npos, 0), 1, 1, strict=0.35)
        d = defect(as_transfer(s))
        assert d.phi is not None and not d.phi_is_zero
        assert d.boundary_residual <= 1e-8, (
            f"control {i}: boundary residual {d.boundary_residual:.2e}")
        if d.phi.numerator.size > 1:
            roots = np.roots(d.phi.numerator[::-1])
            assert np.all(np.abs(roots) >= 1.0 - 1e-8), (
                f"control {i}: outer root inside the disc")


def test_criterion_10_weak_similarity_recovers_state_map():
    """20 pairs of minimal passive realizations of one transfer function,
    related by a mild invertible state change: the weak similarity is
    recovered with all four intertwining residuals within 1e-8 and
    certified invertibility."""
    rng = np.random.default_rng(0)
    made = 0
    attempts = 0
    while made < 20:
        attempts += 1
        assert attempts < 500, "family sampler stalled"
        kappa = int(rng.integers(0, 2))
        npos = 1 + int(rng.integers(0, 3))
        nd = npos + kappa
        m = 1 + int(rng.integers(0, 2))
        p = 1 + int(rng.integers(0, 2))
        s1 = random_passive_colligation(
            rng, SignatureSpace(npos, kappa), m, p, strict=0.3)
        c1 = classify(s1)
        if not (c1.minimal and c1.is_passive):
            continue
        R = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
        Z = np.eye(nd) + 0.05 * R / max(1.0, np.linalg.norm(R, 2))
        s2 = state_change(s1, Z, s1.state)
        c2 = classify(s2)
        if not (c2.minimal and c2.is_passive):
            continue
        res = weak_similarity(s1, s2)
        assert res is not None
        for key in ("A", "B", "C", "D"):
            assert res.residuals[key] <= 1e-8, (
                f"pair {made}: intertwining residual {key} = "
                f"{res.residuals[key]:.2e}")
        assert res.residuals["inverse_condition"] >= 1e-6
        # minimal realizations admit a unique intertwiner, so the planted
        # map must be recovered
        assert np.linalg.norm(res.Z - Z, 2) <= 1e-6 * np.linalg.norm(Z, 2)
        made += 1
    assert time.perf_counter() - _T0 < 120.0
