import math

import numpy as np
import pytest

from _builders import (
    blaschke_system,
    counterexample_observable_system,
    half_shift_system,
    identity_feedthrough,
    inverse_blaschke_system,
    isometric_column_system,
    roots_of_unity_system,
    row_schur_left_system,
    shift_numerator_counterexample,
    spy,
)
from pontsys import colligation, schur
from pontsys.colligation import (
    Colligation,
    SystemKind,
    adjoint_system,
    classify,
    transfer_eval,
    unitary_similarity,
)
from pontsys.exceptions import (
    InputError,
    PoleProximityError,
    PreconditionError,
)
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace
from pontsys.products import cascade, obstruction_observable
from pontsys.sampling import (
    disc_points,
    random_conservative_colligation,
    random_passive_colligation,
)
from pontsys.schur import (
    TransferFunction,
    as_transfer,
    blaschke_potapov_factor,
    blaschke_product,
    boundary_behavior,
    canonical_coisometric_realization,
    check_kernel_decomposition,
    defect,
    invert_system,
    kernel_gram,
    kl_factorize_function,
    negative_squares_estimate,
    sharp,
)


class TestTransferFunction:
    def test_evaluate_blaschke_at_zero(self):
        assert abs(as_transfer(blaschke_system(0.5))(0.0)[0, 0] + 0.5) < 1e-12

    def test_pole_list_and_proximity(self):
        S = as_transfer(inverse_blaschke_system(0.5))
        assert np.allclose(S.poles, [0.5])
        assert S.disc_pole_count == 1
        with pytest.raises(PoleProximityError):
            S(0.5)

    def test_stateless_has_no_poles(self):
        S = as_transfer(identity_feedthrough(2))
        assert S.poles.size == 0
        assert S.disc_pole_count == 0

    def test_sharp_of_real_blaschke_is_itself(self):
        S = as_transfer(blaschke_system(0.5))
        Ssh = sharp(S)
        for z in disc_points(10, seed=1):
            assert abs(S(z)[0, 0] - Ssh(z)[0, 0]) < 1e-12

    def test_sharp_matches_conjugated_adjoint_values(self):
        rng = np.random.default_rng(5)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 3,
                                          strict=0.2)
        S = as_transfer(sys1)
        Ssh = sharp(S)
        for z in disc_points(20, seed=2, radius=0.7):
            lhs = Ssh(z)
            rhs = S(np.conj(z)).conj().T
            assert np.linalg.norm(lhs - rhs, 2) < 1e-9 * max(
                1.0, np.linalg.norm(rhs, 2))

    def test_sharp_is_involutive(self):
        sys1 = counterexample_observable_system()
        back = sharp(sharp(sys1)).backing
        assert np.allclose(back.A, sys1.A)
        assert np.allclose(back.B, sys1.B)
        assert np.allclose(back.C, sys1.C)
        assert np.allclose(back.D, sys1.D)


class TestKernelGram:
    def test_schur_point_value(self):
        g = kernel_gram(blaschke_system(0.5), [0.0])
        assert abs(g.matrix[0, 0] - 0.75) < 1e-12
        assert g.inertia == (1, 0, 0)

    def test_negative_point_value(self):
        g = kernel_gram(inverse_blaschke_system(0.5), [0.0])
        assert abs(g.matrix[0, 0] + 3.0) < 1e-12
        assert g.inertia == (0, 0, 1)

    def test_unitary_constant_gives_zero_kernel(self):
        g = kernel_gram(identity_feedthrough(2), disc_points(5, seed=3))
        assert np.linalg.norm(g.matrix, 2) < 1e-12
        assert g.inertia == (0, 10, 0)

    def test_points_outside_disc_rejected(self):
        with pytest.raises(InputError):
            kernel_gram(blaschke_system(0.5), [1.2])

    def test_pole_adjacent_point_rejected(self):
        with pytest.raises(PoleProximityError):
            kernel_gram(inverse_blaschke_system(0.5), [0.5 + 1e-9])

    def test_product_kernel_identity(self):
        # the product kernel splits into the second factor's kernel plus
        # the conjugated first kernel, identically in the sample points
        rng = np.random.default_rng(7)
        s1 = random_passive_colligation(rng, SignatureSpace(2, 0), 1, 2,
                                        strict=0.2)
        s2 = random_passive_colligation(rng, SignatureSpace(1, 1), 2, 1,
                                        strict=0.2)
        s12 = cascade(s1, s2)
        S1, S2, S12 = as_transfer(s1), as_transfer(s2), as_transfer(s12)
        pts = disc_points(12, seed=4, radius=0.8)
        for z in pts[:4]:
            for w in pts[4:8]:
                k12 = (np.eye(1) - S12(z) @ S12(w).conj().T) / (1 - z * np.conj(w))
                k2 = (np.eye(1) - S2(z) @ S2(w).conj().T) / (1 - z * np.conj(w))
                k1 = (np.eye(2) - S1(z) @ S1(w).conj().T) / (1 - z * np.conj(w))
                rhs = k2 + S2(z) @ k1 @ S2(w).conj().T
                assert np.linalg.norm(k12 - rhs, 2) < 1e-10 * max(
                    1.0, np.linalg.norm(rhs, 2))


class TestNegativeSquares:
    def test_schur_function_has_none(self):
        est = negative_squares_estimate(blaschke_system(0.5))
        assert est.estimate == 0 and est.stable and est.agrees
        assert est.verdict == "stable"

    def test_inverse_blaschke_has_one(self):
        est = negative_squares_estimate(inverse_blaschke_system(0.5))
        assert est.estimate == 1 and est.agrees
        assert est.pole_count == 1

    def test_counterexample_has_one(self):
        est = negative_squares_estimate(counterexample_observable_system())
        assert est.estimate == 1 and est.agrees

    def test_degree_two_inverse(self):
        sys1 = cascade(inverse_blaschke_system(0.5),
                       inverse_blaschke_system(-0.4))
        est = negative_squares_estimate(sys1)
        assert est.estimate == 2 and est.agrees

    def test_history_is_monotone(self):
        est = negative_squares_estimate(counterexample_observable_system())
        hist = np.array(est.history)
        assert np.all(np.diff(hist) >= 0)


def _negsq_reference(S, tol=DEFAULT_TOL):
    """The stage loop that builds every stage's Gram with the public
    kernel_gram over the whole sample set; returns (history, estimate,
    verdict, final Gram)."""
    S = as_transfer(S)
    history = []
    points = np.zeros(0, dtype=complex)
    size = 8
    for stage in range(6):
        fresh = disc_points(size - points.size, seed=tol.seed * 977 + stage,
                            radius=0.93, exclude=S.poles, min_dist=1e-6)
        points = np.concatenate([points, fresh])
        gram = kernel_gram(S, points, tol)
        history.append(gram.n_minus)
        size *= 2
        if len(history) >= 4 and len(set(history[-4:])) == 1:
            return tuple(history), history[-1], "stable", gram
    return tuple(history), None, "inconclusive", gram


def _negsq_systems():
    rng = np.random.default_rng(29)
    systems = [
        random_conservative_colligation(rng, SignatureSpace(7, 3), 2),
        random_passive_colligation(rng, SignatureSpace(4, 2), 1, 1,
                                   strict=0.35),
    ]
    systems += [random_conservative_colligation(rng, SignatureSpace(4, k), 1)
                for k in (1, 2, 3)]
    return systems


class TestNegativeSquaresReuse:
    """Each sample is evaluated once: every stage builds its Gram from the
    values of the earlier stages plus those of its fresh points."""

    @pytest.mark.parametrize("index", range(5))
    def test_matches_the_per_stage_kernel_gram(self, monkeypatch, index):
        system = _negsq_systems()[index]
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(system)
        history, estimate, verdict, gram = _negsq_reference(system)
        assert est.history == history
        assert est.estimate == estimate
        assert est.verdict == verdict
        points, values, tol = grams[-1]
        final = schur._gram_from_values(points, values, tol)
        assert np.array_equal(final.points, gram.points)
        assert np.array_equal(final.matrix, gram.matrix)
        assert final.inertia == gram.inertia

    @pytest.mark.parametrize("index", range(5))
    def test_each_point_evaluated_once(self, monkeypatch, index):
        system = _negsq_systems()[index]
        calls = spy(monkeypatch, colligation.transfer_values)
        est = negative_squares_estimate(system)
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is system])
        assert evaluated.size == 8 * 2 ** (len(est.history) - 1)
        assert np.unique(evaluated).size == evaluated.size


class TestBlaschkePotapov:
    def test_scalar_values(self):
        sys1 = blaschke_potapov_factor(0.5, 1.0, [1.0], 1)
        assert abs(transfer_eval(sys1, 0.0)[0, 0] + 0.5) < 1e-12
        assert abs(transfer_eval(sys1, 1.0)[0, 0] - 1.0) < 1e-12

    def test_boundary_unitarity(self):
        u = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        sys1 = blaschke_potapov_factor(0.3 + 0.2j, np.exp(0.4j), u, 2)
        for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            val = transfer_eval(sys1, np.exp(1j * theta))
            assert np.linalg.norm(val.conj().T @ val - np.eye(2), 2) <= 1e-9

    def test_classifies_conservative_minimal(self):
        sys1 = blaschke_potapov_factor(0.4, 1.0, [0.0, 1.0], 2)
        cls = classify(sys1)
        assert cls.kind == SystemKind.CONSERVATIVE and cls.minimal

    def test_off_direction_is_identity(self):
        sys1 = blaschke_potapov_factor(0.4, 1.0, [1.0, 0.0], 2)
        val = transfer_eval(sys1, 0.37)
        assert abs(val[1, 1] - 1.0) < 1e-12
        assert abs(val[0, 1]) < 1e-12 and abs(val[1, 0]) < 1e-12

    def test_zero_alpha_gives_the_shift(self):
        sys1 = blaschke_potapov_factor(0.0, 1.0, [1.0], 1)
        for z in (0.3, -0.5j, 0.2 + 0.4j):
            assert abs(transfer_eval(sys1, z)[0, 0] - z) < 1e-12

    def test_parameter_domain(self):
        with pytest.raises(InputError):
            blaschke_potapov_factor(1.0, 1.0, [1.0], 1)
        with pytest.raises(InputError):
            blaschke_potapov_factor(0.5, 2.0, [1.0], 1)
        with pytest.raises(InputError):
            blaschke_potapov_factor(0.5, 1.0, [2.0], 1)


class TestInvertSystem:
    def test_invert_blaschke(self):
        inv = invert_system(blaschke_system(0.5))
        assert abs(inv.A[0, 0] - 2.0) < 1e-12
        assert abs(inv.D[0, 0] + 2.0) < 1e-12
        assert (inv.state.pos, inv.state.neg) == (0, 1)
        assert classify(inv, with_krylov=False).kind == SystemKind.CONSERVATIVE

    def test_double_inversion_round_trip(self):
        sys1 = blaschke_system(0.4)
        back = invert_system(invert_system(sys1))
        for z in disc_points(8, seed=6, radius=0.8):
            assert abs(transfer_eval(back, z)[0, 0]
                       - transfer_eval(sys1, z)[0, 0]) < 1e-10

    def test_identity_feedthrough_fixed_point(self):
        out = invert_system(identity_feedthrough(2))
        assert np.allclose(out.D, np.eye(2))
        assert out.state_dim == 0

    def test_singular_feedthrough_rejected(self):
        with pytest.raises(PreconditionError):
            invert_system(half_shift_system())


class TestBlaschkeProduct:
    def test_single_factor(self):
        f = blaschke_potapov_factor(0.5, 1.0, [1.0], 1)
        prod = blaschke_product([f])
        assert np.allclose(prod.A, f.A) and np.allclose(prod.D, f.D)

    def test_inverse_poles_sit_at_the_zeros(self):
        f1 = blaschke_potapov_factor(0.5, 1.0, [1.0], 1)
        f2 = blaschke_potapov_factor(1.0 / 3.0, 1.0, [1.0], 1)
        prod = blaschke_product([f1, f2])
        assert prod.state_dim == 2
        inv = TransferFunction(invert_system(prod))
        assert np.allclose(np.sort(np.abs(inv.poles)), [1.0 / 3.0, 0.5])

    def test_non_conservative_factor_rejected(self):
        with pytest.raises(PreconditionError):
            blaschke_product([half_shift_system()])
        with pytest.raises(PreconditionError):
            blaschke_product([inverse_blaschke_system(0.5)])


class TestKLFactorizeFunction:
    def test_already_schur_gives_degree_zero(self):
        res = kl_factorize_function(blaschke_system(0.5))
        assert res.kappa == 0
        assert res.blaschke_right.backing.state_dim == 0
        assert res.blaschke_left.backing.state_dim == 0
        for z in disc_points(6, seed=8, radius=0.8):
            assert abs(res.schur_right(z)[0, 0]
                       - as_transfer(blaschke_system(0.5))(z)[0, 0]) < 1e-8

    def test_round_trip_degree_two(self):
        inner = blaschke_product([
            blaschke_potapov_factor(0.3, 1.0, [1.0], 1),
            blaschke_potapov_factor(-0.25, 1.0, [1.0], 1)])
        sys1 = cascade(cascade(inverse_blaschke_system(0.5),
                               inverse_blaschke_system(-0.4)), inner)
        res = kl_factorize_function(sys1)
        assert res.kappa == 2
        assert res.right_residual <= 1e-7 and res.left_residual <= 1e-7
        assert res.blaschke_right.backing.state_dim == 2
        assert res.blaschke_left.backing.state_dim == 2

    def test_counterexample_left_factors(self):
        sys1 = counterexample_observable_system()
        res = kl_factorize_function(sys1)
        assert res.kappa == 1
        # the left Blaschke factor vanishes where 1/b blows up
        assert abs(res.blaschke_left(0.5)[0, 0]) < 1e-8
        # the left Schur factor is the co-inner row (a b, 1)/sqrt(2) up to
        # a unimodular constant
        bnd = boundary_behavior(res.schur_left)
        assert bnd.co_inner and not bnd.inner
        val0 = res.schur_left(0.0)
        ref = abs(blaschke_system(1.0 / 3.0).D[0, 0]
                  * blaschke_system(0.5).D[0, 0]) / math.sqrt(2.0)
        assert abs(abs(val0[0, 0]) - ref) < 1e-7
        assert abs(abs(val0[0, 1]) - 1.0 / math.sqrt(2.0)) < 1e-7

    def test_shift_numerator_counterexample(self):
        sys1 = shift_numerator_counterexample()
        res = kl_factorize_function(sys1)
        assert res.kappa == 1
        assert abs(res.blaschke_left(0.5)[0, 0]) < 1e-8
        val0 = res.schur_left(0.0)
        assert abs(val0[0, 0]) < 1e-7
        assert abs(abs(val0[0, 1]) - 1.0 / math.sqrt(2.0)) < 1e-7

    def test_tall_column_right_fallback(self):
        # inner column with scalar input: the right side has no
        # state-space route and must come from the scalar denominator
        sys1 = adjoint_system(counterexample_observable_system())
        res = kl_factorize_function(sys1)
        assert res.kappa == 1
        assert abs(res.blaschke_right(0.5)[0, 0]) < 1e-8
        val0 = res.schur_right(0.0)
        assert abs(abs(val0[0, 0]) - 1.0 / (6.0 * math.sqrt(2.0))) < 1e-7
        assert abs(abs(val0[1, 0]) - 1.0 / math.sqrt(2.0)) < 1e-7

    def test_strictly_passive_backing_rejected(self):
        with pytest.raises(PreconditionError):
            kl_factorize_function(half_shift_system())

    def test_each_system_is_classified_once(self, monkeypatch):
        # the backing serves both sides, and each inverse Blaschke factor
        # is certified conservative once, on inversion
        rng = np.random.default_rng(3)
        backing = random_conservative_colligation(rng, SignatureSpace(7, 3), 2)
        krylov_calls = spy(monkeypatch, colligation.krylov_report)
        calls = spy(monkeypatch, colligation.system_operator)
        res = kl_factorize_function(backing)
        krylov = [args[0] for args in krylov_calls]
        classified = [args[0] for args in calls]
        assert res.kappa == 3
        assert sum(s is backing for s in krylov) == 1
        assert sum(s is backing for s in classified) == 1
        assert len({id(s) for s in classified}) == len(classified)
        for fac in (res.blaschke_right, res.blaschke_left):
            assert sum(s is fac.backing for s in classified) == 1


class TestBoundaryBehavior:
    def test_blaschke_is_bi_inner(self):
        rep = boundary_behavior(blaschke_system(0.5))
        assert rep.contractive and rep.inner and rep.co_inner and rep.bi_inner

    def test_half_shift_is_contractive_only(self):
        rep = boundary_behavior(half_shift_system())
        assert rep.contractive and not rep.inner and not rep.co_inner
        good = ~np.isnan(rep.defect_right)
        assert np.max(np.abs(rep.defect_right[good] - 0.75)) < 1e-10
        assert np.max(np.abs(rep.sigma_max[good] - 0.5)) < 1e-10

    def test_counterexample_is_co_inner_only(self):
        rep = boundary_behavior(counterexample_observable_system())
        assert rep.co_inner and not rep.inner and not rep.bi_inner

    def test_rows_shape(self):
        rep = boundary_behavior(blaschke_system(0.3))
        rows = list(rep.rows())
        assert len(rows) == rep.angles.size
        assert all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("inputs, outputs", [(1, 0), (0, 1)])
    def test_zero_width_agrees_with_defect(self, inputs, outputs):
        # S is 0 x 1 or 1 x 0: of I - S^*S and I - SS^* one is the 1 x 1
        # identity and the other is empty
        system = Colligation(SignatureSpace(1, 0), inputs, outputs, [[0.5]],
                             np.ones((1, inputs)), np.ones((outputs, 1)),
                             np.zeros((outputs, inputs)))
        rep = boundary_behavior(system)
        res = defect(system)
        assert rep.inner == res.phi_is_zero == (inputs == 0)
        assert rep.co_inner == res.psi_is_zero == (outputs == 0)
        assert not rep.bi_inner and rep.contractive
        assert np.all(rep.defect_right == inputs)
        assert np.all(rep.defect_left == outputs)


class TestDefect:
    def test_half_shift_defect_is_constant(self):
        res = defect(half_shift_system())
        assert not res.phi_is_zero
        target = math.sqrt(3.0) / 2.0
        for z in (0.0, 0.3, 0.5j, -0.2 + 0.1j):
            assert abs(abs(res.phi(z)) - target) < 1e-9
        assert res.boundary_residual <= 1e-8
        # scalar case: the left defect has the same boundary modulus
        assert not res.psi_is_zero
        assert abs(abs(res.psi(0.2)) - target) < 1e-9

    def test_inner_function_has_zero_defect(self):
        res = defect(blaschke_system(0.5))
        assert res.phi_is_zero and res.psi_is_zero

    def test_inverse_blaschke_has_zero_defect(self):
        res = defect(inverse_blaschke_system(0.5))
        assert res.phi_is_zero and res.psi_is_zero

    def test_random_strict_scalar_factorization(self):
        rng = np.random.default_rng(11)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 0), 1, 1,
                                          strict=0.25)
        S = as_transfer(sys1)
        res = defect(sys1)
        assert not res.phi_is_zero
        for theta in np.linspace(0.1, 2 * np.pi, 17):
            z = np.exp(1j * theta)
            want = 1.0 - abs(S(z)[0, 0]) ** 2
            assert abs(abs(res.phi(z)) ** 2 - want) < 1e-8 * max(1.0, want)
            assert abs(abs(res.psi(z)) ** 2 - want) < 1e-8 * max(1.0, want)
        # outer certificate: no numerator roots inside the open disc
        roots = np.roots(res.phi.numerator[::-1]) if res.phi.numerator.size > 1 \
            else np.zeros(0)
        assert np.all(np.abs(roots) >= 1.0 - 1e-8)

    def test_matrix_case_flags_only(self):
        res = defect(counterexample_observable_system())
        assert res.phi is None and res.psi is None
        assert res.psi_is_zero and not res.phi_is_zero

    def test_isometric_column_has_zero_right_defect(self):
        res = defect(isometric_column_system())
        assert res.phi_is_zero and not res.psi_is_zero

    def test_all_samples_pole_proximal_raises(self):
        # poles at every 128th root of unity: no circle sample survives,
        # so there is no sampled verdict to give
        system = roots_of_unity_system()
        with pytest.raises(PoleProximityError) as info:
            defect(system)
        assert info.value.point == 1.0


class TestCanonicalRealization:
    def test_blaschke_model_matches_the_colligation(self):
        model = canonical_coisometric_realization(blaschke_system(0.5))
        assert model.state_dim == 1
        assert (model.state.pos, model.state.neg) == (1, 0)
        sim = unitary_similarity(model, blaschke_system(0.5))
        assert sim is not None
        assert max(v for k, v in sim.residuals.items()) <= 1e-7

    def test_unitary_constant_gives_stateless_model(self):
        model = canonical_coisometric_realization(identity_feedthrough(2))
        assert model.state_dim == 0
        assert np.allclose(model.D, np.eye(2))

    def test_inverse_blaschke_model(self):
        model = canonical_coisometric_realization(inverse_blaschke_system(0.5))
        assert model.state_dim == 1
        assert (model.state.pos, model.state.neg) == (0, 1)
        cls = classify(model)
        assert cls.kind in (SystemKind.COISOMETRIC, SystemKind.CONSERVATIVE)
        assert cls.observable

    def test_counterexample_model_dimensions(self):
        model = canonical_coisometric_realization(
            counterexample_observable_system())
        assert model.state_dim == 2
        assert model.state.neg == 1

    def test_infinite_rank_rejected(self):
        with pytest.raises(PreconditionError):
            canonical_coisometric_realization(half_shift_system())

    @pytest.mark.parametrize("system", [
        blaschke_system(0.5),
        counterexample_observable_system(),
        random_conservative_colligation(np.random.default_rng(5),
                                        SignatureSpace(4, 2), 2),
    ])
    def test_final_plan_evaluated_once(self, monkeypatch, system):
        plans = spy(monkeypatch, schur._model_plan)
        calls = spy(monkeypatch, colligation.transfer_values)
        canonical_coisometric_realization(system)
        final = schur._model_plan(*plans[-1])
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is system])
        for z in np.append(final, 0.0):
            assert np.sum(evaluated == z) == 1


class TestKernelDecomposition:
    def test_distinct_blaschke_pair_holds(self):
        rep = check_kernel_decomposition(blaschke_system(1.0 / 3.0),
                                         blaschke_system(0.5))
        assert rep.holds and rep.rank_additive and rep.isometric
        assert rep.obstruction_dimension == 0
        assert rep.rank_first == 1 and rep.rank_second == 1
        assert rep.rank_product == 2

    def test_identity_second_factor_holds(self):
        rep = check_kernel_decomposition(blaschke_system(0.4),
                                         identity_feedthrough(1))
        assert rep.holds and rep.rank_second == 0

    def test_second_factor_evaluated_once_per_kernel_point(self, monkeypatch):
        # the 24-point kernel plan of check_kernel_decomposition serves both
        # the second factor's Gram and the images of the first factor's
        # sections
        second = blaschke_system(0.5)
        calls = spy(monkeypatch, colligation.transfer_values)
        check_kernel_decomposition(blaschke_system(1.0 / 3.0), second)
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is second])
        for z in disc_points(24, seed=DEFAULT_TOL.seed * 271 + 3, radius=0.9):
            assert np.sum(evaluated == z) == 1

    def test_controllable_variant(self):
        rep = check_kernel_decomposition(blaschke_system(1.0 / 3.0),
                                         blaschke_system(0.5),
                                         variant="controllable")
        assert rep.holds and rep.variant == "controllable"

    def test_non_schur_first_factor_rejected(self):
        with pytest.raises(PreconditionError):
            check_kernel_decomposition(inverse_blaschke_system(0.5),
                                       blaschke_system(0.5))

    def test_all_pole_proximal_survey_is_not_schur_class(self):
        # every pole sits just outside the circle at a sample point of the
        # 32-point survey, so no sample is accepted; |S(0.999)| is ~4e3
        roots = np.exp(2j * np.pi * np.arange(32) / 32)
        first = Colligation(SignatureSpace(32, 0), 1, 1,
                            np.diag((1.0 - 1e-14) * np.conj(roots)),
                            np.full((32, 1), 4.0), np.ones((1, 32)),
                            np.zeros((1, 1)))
        assert as_transfer(first).disc_pole_count == 0
        with pytest.raises(PoleProximityError) as info:
            check_kernel_decomposition(first, blaschke_system(0.5))
        assert info.value.point == 1.0

    def test_counterexample_orientation_fails_by_obstruction(self):
        # the counterexample pair is outside the Schur-class scope of the
        # kernel test, but the state-space obstruction on the canonical
        # model shows the failure directly
        model = canonical_coisometric_realization(row_schur_left_system())
        rep = obstruction_observable(model, inverse_blaschke_system(0.5))
        assert rep.dimension >= 1


class TestZeroDefectEquivalences:
    def test_minimal_conservative_scalar_has_both_zero(self):
        sys1 = cascade(blaschke_system(0.3), inverse_blaschke_system(0.6))
        cls = classify(sys1)
        assert cls.kind == SystemKind.CONSERVATIVE and cls.minimal
        res = defect(sys1)
        assert res.phi_is_zero and res.psi_is_zero
        bnd = boundary_behavior(sys1)
        assert bnd.bi_inner

    def test_controllable_isometric_inner_column(self):
        # controllable passive realization of an inner function with zero
        # right defect certifies isometric and minimal
        sys1 = isometric_column_system()
        res = defect(sys1)
        assert res.phi_is_zero
        bnd = boundary_behavior(sys1)
        assert bnd.inner and not bnd.co_inner
        cls = classify(sys1)
        assert cls.kind == SystemKind.ISOMETRIC and cls.minimal

    def test_adjoint_counterexample_is_inner_and_controllable(self):
        sys1 = adjoint_system(counterexample_observable_system())
        res = defect(sys1)
        assert res.phi is None and res.psi is None
        assert res.phi_is_zero and not res.psi_is_zero
        cls = classify(sys1)
        assert cls.kind == SystemKind.ISOMETRIC and cls.controllable
