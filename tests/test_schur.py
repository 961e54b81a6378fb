import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from _builders import (
    bitwise_equal,
    blaschke_system,
    check_kernel_decomposition,
    counterexample_observable_system,
    direct_sum,
    half_shift_system,
    identity_feedthrough,
    inverse_blaschke_system,
    isometric_column_system,
    roots_of_unity_system,
    row_schur_left_system,
    scipy_trsolve,
    sharp,
    shift_numerator_counterexample,
    spy,
    spy_attr,
)
from pontsys import colligation, exceptions, indefinite, schur
from pontsys.colligation import (
    Colligation,
    SystemKind,
    adjoint_system,
    classify,
    state_change,
    system_kind,
    transfer_eval,
    unitary_similarity,
)
from pontsys.exceptions import (
    AmbiguousSpectrumError,
    InputError,
    InternalConsistencyError,
    PoleProximityError,
    PreconditionError,
)
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace
from pontsys.products import cascade, kl_factorize_system, obstruction_observable
from pontsys.sampling import (
    disc_points,
    random_conservative_colligation,
    random_j_unitary,
    random_passive_colligation,
)
from pontsys.schur import (
    TransferFunction,
    as_transfer,
    blaschke_potapov_factor,
    blaschke_product,
    boundary_behavior,
    canonical_coisometric_realization,
    defect,
    invert_system,
    kernel_gram,
    kl_factorize_function,
    negative_squares_estimate,
)
from test_acceptance import _mixed_family


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


def _decompositions(monkeypatch):
    """Record the zgees call of every Schur form taken, its main operator
    the second argument, and every general eigenvalue solve."""
    return (spy_attr(monkeypatch, indefinite, "zgees"),
            spy_attr(monkeypatch, np.linalg, "eigvals"))


def _repeated(operators):
    """Pairs of recorded operators that are equal, entry for entry."""
    return [(i, j) for i in range(len(operators)) for j in range(i)
            if np.shape(operators[i]) == np.shape(operators[j])
            and np.array_equal(operators[i], operators[j])]


class TestOneSpectrum:
    """Every eigenvalue question reads the backing's one Schur form."""

    def test_pole_errors_name_the_same_pole(self):
        # poles at the 128th roots of unity, with the one at 1 moved just
        # inside the disc: the circle sample 1, a kernel point within
        # _POLE_MARGIN of that pole and the whole circle survey are refused
        # with the pole the backing's spectrum lists nearest to 1
        roots = np.exp(2j * np.pi * np.arange(128) / 128)
        roots[0] = 1.0 / (1.0 - 1e-12)
        system = Colligation(SignatureSpace(128, 0), 1, 1, np.diag(roots),
                             np.full((128, 1), 1.0 / 128), np.ones((1, 128)),
                             np.zeros((1, 1)))
        poles = system._spectrum.poles
        pole = poles[np.argmin(np.abs(poles - 1.0))]
        assert 0.0 < 1.0 - abs(pole) < 1e-11
        errors = []
        for call in (lambda: transfer_eval(system, 1.0),
                     lambda: kernel_gram(system, [1.0 - 5e-7]),
                     lambda: defect(system)):
            with pytest.raises(PoleProximityError) as info:
                call()
            errors.append(info.value)
        assert [e.nearest_pole for e in errors] == [pole] * 3
        assert [e.point for e in errors] == [1.0, 1.0 - 5e-7, 1.0]

    def test_poles_and_spectrum_are_read_only(self):
        rng = np.random.default_rng(12)
        S = as_transfer(random_conservative_colligation(rng, SignatureSpace(5, 2), 2))
        form = S.backing._spectrum
        assert np.array_equal(form.eigenvalues, np.diag(form.T))
        for arr in (S.poles, form.poles, form.T, form.Z, form.eigenvalues):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert S.poles.size == 7 and S.disc_pole_count == 2

    def test_transfer_functions_on_one_backing_share_one_schur_form(self, monkeypatch):
        rng = np.random.default_rng(13)
        system = random_conservative_colligation(rng, SignatureSpace(6, 2), 2)
        schur_calls, eigvals = _decompositions(monkeypatch)
        first, second = TransferFunction(system), TransferFunction(system)
        assert first.poles is second.poles
        assert first.disc_pole_count == second.disc_pole_count == 2
        assert negative_squares_estimate(second).estimate == 2
        assert len(schur_calls) == 1 and eigvals == []

    def test_kl_factorize_function_decomposes_no_operator_twice(self, monkeypatch):
        # both sides factor the given backing: one Schur form serves its
        # poles and both sides' fundamental splits
        rng = np.random.default_rng(14)
        system = random_conservative_colligation(rng, SignatureSpace(7, 3), 2)
        schur_calls, eigvals = _decompositions(monkeypatch)
        res = kl_factorize_function(system)
        assert res.kappa == 3
        operators = [args[1] for args in schur_calls]
        assert sum(np.shape(A) == (10, 10) for A in operators) == 1
        assert _repeated(operators) == [] and eigvals == []


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
    kernel_gram over the whole sample set.  It stops after four equal
    counts; returns (history, estimate, verdict, final Gram)."""
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


def _non_passive_copy(system):
    """The same transfer function in state coordinates that are not metric
    unitary, so that system_kind gives NONE."""
    Z = np.eye(system.state_dim)
    Z[0, 0] = 3.0
    changed = state_change(system, Z, system.state)
    assert system_kind(changed) == SystemKind.NONE
    return changed


def _with_hidden_block(system, A, state):
    """system beside a block that no input reaches and no output sees."""
    n = state.dim
    return direct_sum(system, Colligation(state, 0, 0, A, np.zeros((n, 0)),
                                          np.zeros((0, n)), np.zeros((0, 0))))


def _assert_matches_reference(monkeypatch, system):
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
    return est


class TestNegativeSquaresReuse:
    """Each sample is evaluated once: every stage builds its Gram from the
    values of the earlier stages plus those of its fresh points."""

    @pytest.mark.parametrize("index", range(5))
    def test_matches_the_per_stage_kernel_gram(self, monkeypatch, index):
        # a non-passive backing runs the ladder of four equal counts
        system = _negsq_systems()[index]
        est = _assert_matches_reference(monkeypatch, _non_passive_copy(system))
        assert len(est.history) >= 4

    @pytest.mark.parametrize("index", range(5))
    def test_each_point_evaluated_once(self, monkeypatch, index):
        system = _non_passive_copy(_negsq_systems()[index])
        calls = spy(monkeypatch, colligation.transfer_values)
        est = negative_squares_estimate(system)
        assert est.route == "kernel_ladder"
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is system])
        assert evaluated.size == 8 * 2 ** (len(est.history) - 1)
        assert np.unique(evaluated).size == evaluated.size


def _hidden_pole_probe(n, kappa, seed):
    """The hidden-pole probe: a strictly passive backing of index kappa
    beside a decoupled negative state with A = 2, a disc pole of the
    realization that the function does not have."""
    system = random_passive_colligation(
        np.random.default_rng([n, kappa, seed]),
        SignatureSpace(n - kappa, kappa), 1, 1, strict=0.35)
    return _with_hidden_block(system, [[2.0]], SignatureSpace(0, 1))


def _metric_inertia(system):
    """Inertia of the state metric H of the system's minimal part."""
    return tuple(indefinite.inertia(schur._minimal_part(system, DEFAULT_TOL)[3]))


class TestNegativeSquaresBound:
    """A passive backing takes its index from its minimal part: the
    eigenvalues outside the closed disc, certified by the inertia of the
    part's state metric.  Every other backing keeps the ladder."""

    @pytest.mark.parametrize("index", range(5))
    def test_index_preserving_backing_takes_the_theorem_route(self, monkeypatch,
                                                              index):
        system = _negsq_systems()[index]
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(system)
        assert grams == []
        assert est.route == "minimal_part" and est.history == ()
        assert est.estimate == est.pole_count == system.kappa
        assert est.stable and est.agrees and est.verdict == "stable"
        # the ladder on the same function in non-passive coordinates
        ladder = _assert_matches_reference(monkeypatch, _non_passive_copy(system))
        assert ladder.route == "kernel_ladder"
        assert (ladder.estimate, ladder.stable, ladder.agrees) == (
            est.estimate, est.stable, est.agrees)

    @pytest.mark.parametrize("n, kappa", [(40, 8), (40, 12), (40, 16),
                                          (60, 20), (80, 30)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_index_probes_answer_kappa(self, monkeypatch, n, kappa, seed):
        # strictly passive backings on which the ladder saturates below
        # kappa from kappa = 12 on
        system = random_passive_colligation(
            np.random.default_rng([n, kappa, seed]),
            SignatureSpace(n - kappa, kappa), 1, 1, strict=0.35)
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(system)
        assert (est.estimate, est.route, est.agrees) == (kappa, "minimal_part", True)
        assert grams == []

    @pytest.mark.parametrize("n, kappa, seed", [(12, 3, 0), (40, 8, 0), (40, 12, 0),
                                                (40, 12, 1), (60, 20, 0), (80, 30, 1)])
    def test_hidden_pole_probes_answer_kappa(self, monkeypatch, n, kappa, seed):
        # the ladder is inconclusive on (40, 8), (40, 12) and (60, 20), and
        # kl_factorize_function refuses (80, 30, 1); the minimal part drops
        # the hidden state and its metric certifies the count
        system = _hidden_pole_probe(n, kappa, seed)
        assert system_kind(system) == SystemKind.PASSIVE
        grams = spy(monkeypatch, schur._gram_from_values)
        reports = spy(monkeypatch, colligation.krylov_report)
        est = negative_squares_estimate(system)
        assert grams == [] and reports == []
        assert (est.estimate, est.route, est.history) == (kappa, "minimal_part", ())
        assert est.pole_count == kappa + 1 and est.agrees is False
        assert _metric_inertia(system) == (n - kappa, 0, kappa)

    def test_no_krylov_report_is_taken(self, monkeypatch):
        system = _negsq_systems()[0]
        reports = spy(monkeypatch, colligation.krylov_report)
        est = schur._negative_squares(as_transfer(system), system_kind(system),
                                      DEFAULT_TOL)
        assert est.estimate == 3 and reports == []

    def test_a_non_passive_backing_reads_no_report(self, monkeypatch):
        reports = spy(monkeypatch, colligation.krylov_report)
        parts = spy(monkeypatch, schur._minimal_part)
        est = negative_squares_estimate(_non_passive_copy(_negsq_systems()[0]))
        assert est.route == "kernel_ladder" and reports == [] and parts == []

    @staticmethod
    def one_more_outside(monkeypatch, more=1):
        """Plant more eigenvalues outside the disc in the minimal part."""
        real = schur._minimal_part

        def planted(system, tol):
            form, B, C, H, inside = real(system, tol)
            inside = inside.copy()
            inside[np.flatnonzero(inside)[:more]] = False
            return form, B, C, H, inside

        monkeypatch.setattr(schur, "_minimal_part", planted)

    def test_pole_count_off_the_index_raises(self, monkeypatch):
        # a backing that is its own minimal part counts kappa eigenvalues
        # outside the disc; a count planted one off is refused, not reported
        system = _negsq_systems()[0]
        self.one_more_outside(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="differs from its index 3"):
            negative_squares_estimate(system)

    def test_count_above_kappa_raises(self, monkeypatch):
        # a count that its metric confirms still may not exceed kappa: the
        # hidden-pole backing's part counts 3 of kappa = 4, planted 5
        def two_more_negatives(H, tol):
            plus, zero, minus = indefinite.inertia(H, tol)
            return indefinite.Inertia(plus - 2, zero, minus + 2)

        hidden = self.hidden_pole()
        assert hidden.kappa == 4
        self.one_more_outside(monkeypatch, 2)
        monkeypatch.setattr(schur, "inertia", two_more_negatives)
        with pytest.raises(InternalConsistencyError, match="within the state index"):
            negative_squares_estimate(hidden)

    def test_compressed_part_off_its_metric_keeps_the_ladder(self, monkeypatch):
        # on a compressed part the same planted count is left to the ladder
        self.one_more_outside(monkeypatch)
        est = _assert_matches_reference(monkeypatch, self.hidden_pole())
        assert est.route == "kernel_ladder" and est.estimate == 3

    def test_singular_metric_keeps_the_ladder(self, monkeypatch):
        # only a compressed part's metric can be singular; J is not
        def singular(H, tol):
            return indefinite.Inertia(len(H) - 1, 1, 0)

        monkeypatch.setattr(schur, "inertia", singular)
        est = _assert_matches_reference(monkeypatch, self.hidden_pole())
        assert est.route == "kernel_ladder" and est.estimate == 3

    def test_hidden_pole_answers_by_the_minimal_part(self, monkeypatch):
        # a hidden J-unitary block adds a disc pole of the realization
        # that the function does not have; its indefinite block lies in the
        # Krylov complements, so the backing is not index-preserving
        hidden = self.hidden_pole()
        assert system_kind(hidden) == SystemKind.CONSERVATIVE
        assert not colligation.krylov_report(hidden).index_preserving
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(hidden)
        assert grams == [] and est.route == "minimal_part"
        assert est.estimate == 3 and est.pole_count == 4
        assert est.stable and est.agrees is False
        assert _metric_inertia(hidden) == (7, 0, 3)

    @pytest.mark.parametrize("inverse_first", [False, True])
    def test_cancelling_cascade_answers_zero(self, monkeypatch, inverse_first):
        # (b_beta b_alpha) / b_beta: the pole of 1/b_beta cancels against
        # the zero of b_beta, in either order of the cascade
        numerator = cascade(blaschke_system(0.5), blaschke_system(-0.3 + 0.2j))
        inverse = inverse_blaschke_system(0.5)
        system = (cascade(inverse, numerator) if inverse_first
                  else cascade(numerator, inverse))
        assert system_kind(system) == SystemKind.CONSERVATIVE
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(system)
        assert grams == [] and est.route == "minimal_part"
        assert (est.estimate, est.pole_count, est.agrees) == (0, 1, False)
        assert _metric_inertia(system) == (1, 0, 0)

    @staticmethod
    def hidden_pole():
        t = 0.5
        hyperbolic = [[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]]
        return _with_hidden_block(_negsq_systems()[0], hyperbolic,
                                  SignatureSpace(1, 1))

    def test_hidden_eigenvalue_near_the_circle_is_dropped(self, monkeypatch):
        # a hidden eigenvalue inside the disc, within metric_tol of the
        # circle, is not in the minimal part
        system = _negsq_systems()[0]
        lam = (1.0 - 0.5 * DEFAULT_TOL.metric_tol) * np.exp(0.3j)
        hidden = _with_hidden_block(system, [[lam]], SignatureSpace(1, 0))
        assert system_kind(hidden) != SystemKind.NONE
        assert as_transfer(hidden).disc_pole_count == 3
        grams = spy(monkeypatch, schur._gram_from_values)
        est = negative_squares_estimate(hidden)
        assert grams == [] and est.route == "minimal_part"
        assert (est.estimate, est.agrees) == (3, True)
        assert _metric_inertia(hidden) == (7, 0, 3)

    def test_eigenvalue_near_the_circle_keeps_the_ladder(self, monkeypatch):
        # beside a Blaschke factor whose zero lies within metric_tol of the
        # circle, the eigenvalue is reachable and observable, so it stays
        # in the minimal part, where the pole count is not trusted
        system = direct_sum(_negsq_systems()[0], blaschke_system(
            (1.0 - 0.5 * DEFAULT_TOL.metric_tol) * np.exp(0.3j)))
        assert system_kind(system) == SystemKind.CONSERVATIVE
        assert colligation.krylov_report(system).simple
        with pytest.raises(AmbiguousSpectrumError):
            schur._minimal_part(system, DEFAULT_TOL)
        est = _assert_matches_reference(monkeypatch, system)
        assert est.route == "kernel_ladder"
        assert est.estimate == 3 and est.agrees

    def test_non_passive_probe_is_inconclusive(self, monkeypatch):
        # the (40, 12, 0) probe in coordinates that are not metric unitary:
        # the ladder saturates at 8 and says so
        system = random_passive_colligation(
            np.random.default_rng([40, 12, 0]), SignatureSpace(28, 12), 1, 1,
            strict=0.35)
        Z = np.eye(40)
        Z[0, 0], Z[-1, -1] = 3.0, 1.0 / 3.0
        changed = state_change(system, Z, system.state)
        assert system_kind(changed) == SystemKind.NONE
        est = _assert_matches_reference(monkeypatch, changed)
        assert (est.estimate, est.verdict, est.history) == (
            None, "inconclusive", (0, 2, 7, 8, 8, 8))
        assert not est.stable and est.agrees is None and est.pole_count == 12


def _characterization_sweep():
    """(name, backing): seeded passive and conservative backings, alone and
    beside hidden blocks of either sign."""
    hidden = {"none": None,
              "positive": ([[0.5]], SignatureSpace(1, 0)),
              "negative": ([[2.0]], SignatureSpace(0, 1)),
              "hyperbolic": ([[math.cosh(0.5), math.sinh(0.5)],
                              [math.sinh(0.5), math.cosh(0.5)]], SignatureSpace(1, 1))}
    for n, kappa in ((3, 1), (6, 2), (10, 3), (24, 5)):
        for seed in (0, 1):
            rng = np.random.default_rng([n, kappa, seed, 35])
            state = SignatureSpace(n - kappa, kappa)
            bases = {"conservative": random_conservative_colligation(rng, state, 1),
                     "passive": random_passive_colligation(rng, state, 2, 1,
                                                           strict=0.3)}
            for kind, base in bases.items():
                for name, block in hidden.items():
                    system = base if block is None else _with_hidden_block(base, *block)
                    yield f"{kind}-{n}-{kappa}-{seed}-{name}", system


SWEEP = dict(_characterization_sweep())


class TestIndexCharacterization:
    """The paper's characterization both ways: a passive backing keeps its
    full index exactly when its Krylov complements are Hilbert."""

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_index_preserving_iff_the_index_is_kappa(self, name):
        system = SWEEP[name]
        assert system_kind(system) != SystemKind.NONE
        est = negative_squares_estimate(system)
        assert est.route == "minimal_part"
        preserving = colligation.krylov_report(system).index_preserving
        assert preserving == (est.estimate == system.kappa)
        assert preserving == name.endswith(("none", "positive"))

    def test_estimate_is_the_factorization_degree(self):
        answered = 0
        for system in SWEEP.values():
            est = negative_squares_estimate(system)
            try:
                kappa = kl_factorize_function(system).kappa
            except (PreconditionError, AmbiguousSpectrumError):
                continue
            assert est.estimate == kappa
            answered += 1
        assert answered >= len(SWEEP) // 2


class TestMinimalPartOfDilation:
    """A dilation of a small system by an invariant, unobserved Hilbert
    block coupled into it compresses back to the small system's minimal
    part: same transfer function, state dimension and metric inertia."""

    @staticmethod
    def build_dilation(small, extra, radius=0.3, rng=None):
        """Prepend an invariant, unobserved Hilbert block of size extra whose
        main operator is radius times a unitary; the input reaches it."""
        rng = np.random.default_rng(17) if rng is None else rng
        n = small.state_dim
        A_D = radius * random_j_unitary(rng, SignatureSpace(extra, 0))
        Y = 0.2 * rng.standard_normal((extra, n))
        B_D = 0.1 * rng.standard_normal((extra, small.input_dim))
        A = np.block([[A_D, Y], [np.zeros((n, extra)), small.A]])
        B = np.vstack([B_D, small.B])
        C = np.hstack([np.zeros((small.output_dim, extra)), small.C])
        state = SignatureSpace.from_signs(
            np.concatenate([np.ones(extra), small.state.signs]))
        return Colligation(state, small.input_dim, small.output_dim, A, B, C, small.D)

    @staticmethod
    def seeded_dilation(seed):
        """(big, small): a strictly passive small system, n = 4-24 and
        kappa <= 2, under a 1-3-state block of spectral radius 0.3, 0.95 or
        2.0, by seed modulo 3."""
        rng = np.random.default_rng([21, seed])
        n = int(rng.integers(4, 25))
        kappa = int(rng.integers(0, 3))
        extra = int(rng.integers(1, 4))
        channels = int(rng.integers(1, 3))
        small = random_passive_colligation(
            rng, SignatureSpace(n - kappa, kappa), channels, channels, strict=0.3)
        radius = (0.3, 0.95, 2.0)[seed % 3]
        return TestMinimalPartOfDilation.build_dilation(small, extra, radius, rng), small

    @staticmethod
    def minimal(system):
        """(realization, H, inside) of _minimal_part, the realization on a
        Hilbert state in the coordinates of its Schur form."""
        form, B, C, H, inside = schur._minimal_part(system, DEFAULT_TOL)
        part = schur._hilbert_system(form.T, form.Z.conj().T @ B, C @ form.Z, system.D)
        return part, H, inside

    @staticmethod
    def mismatch(part, system):
        """Largest relative spectral-norm gap of the two transfer functions
        over eight disc points clear of the system's poles."""
        points = disc_points(8, seed=3, exclude=as_transfer(system).poles)
        gaps = []
        for z in points:
            want = transfer_eval(system, z)
            gaps.append(np.linalg.norm(transfer_eval(part, z) - want, 2)
                        / max(1.0, np.linalg.norm(want, 2)))
        return max(gaps)

    # the seeded cases hide a block of radius 0.95 or 2.0 beside 14-24
    # states, where the whole-state recurrence misses hidden modes
    @pytest.mark.parametrize("seed", [None, 2, 5, 7, 17, 29, 31],
                             ids=lambda seed: f"seed{seed}" if seed is not None else "blaschke")
    def test_hidden_block_is_compressed_away(self, seed):
        if seed is None:
            small = blaschke_system(0.5)
            big = self.build_dilation(small, 2)
        else:
            big, small = self.seeded_dilation(seed)
        part, H, inside = self.minimal(big)
        want, H_small, inside_small = self.minimal(small)
        assert part.state_dim == want.state_dim < big.state_dim
        assert self.mismatch(part, small) < 1e-10
        assert tuple(indefinite.inertia(H)) == tuple(indefinite.inertia(H_small))
        assert np.count_nonzero(~inside) == np.count_nonzero(~inside_small)

    def test_one_state_dilation_keeps_the_negative_state(self):
        # the hidden coordinate goes, the negative one stays: H = [-1]
        small = inverse_blaschke_system(0.4)
        part, H, inside = self.minimal(self.build_dilation(small, 1))
        assert part.state_dim == 1 and not inside.any()
        assert np.allclose(H, [[-1.0]], atol=1e-12)
        assert self.mismatch(part, small) < 1e-10

    def test_other_system_does_not_match(self):
        part, _, _ = self.minimal(self.build_dilation(blaschke_system(0.5), 2))
        assert self.mismatch(part, blaschke_system(0.3)) > 0.1

    def test_minimal_index_is_the_small_index(self):
        for seed in (2, 5, 7, 17, 29, 31):
            big, small = self.seeded_dilation(seed)
            assert schur._minimal_index(as_transfer(big), DEFAULT_TOL) == small.kappa


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


class TestRelativeMismatch:
    @pytest.mark.parametrize("size", [1.0, 1e160, 1e-170])
    def test_mismatch_holds_at_any_finite_scale(self, size):
        # transfer values near 1e160 square past the float range; their
        # relative mismatch of 1e-5 must still read 1e-5, not 0, and fail
        # the factor-reconstruction bound
        rng = np.random.default_rng(7)
        want = size * (rng.standard_normal((8, 2, 3)) + 1j * rng.standard_normal((8, 2, 3)))
        got = want.copy()
        got[3] *= 1.0 + 1e-5
        mismatch = schur._relative_mismatch(got, want)
        floor = np.maximum(1.0, np.linalg.norm(want, 2, axis=(1, 2)))
        expect = np.max(np.linalg.norm(got - want, 2, axis=(1, 2)) / floor)
        assert mismatch == pytest.approx(expect, rel=1e-12)
        if size > 1.0:
            assert mismatch == pytest.approx(1e-5, rel=1e-9)


class TestInvertSystem:
    def test_invert_blaschke(self):
        inv = invert_system(blaschke_system(0.5))
        assert abs(inv.A[0, 0] - 2.0) < 1e-12
        assert abs(inv.D[0, 0] + 2.0) < 1e-12
        assert (inv.state.pos, inv.state.neg) == (0, 1)
        assert system_kind(inv) == SystemKind.CONSERVATIVE

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

    def test_tall_column_factors_on_both_sides(self):
        # inner column with scalar input: the right side peels its pole
        # on the one input channel, the left side on the two outputs
        sys1 = adjoint_system(counterexample_observable_system())
        res = kl_factorize_function(sys1)
        assert res.kappa == 1
        assert abs(res.blaschke_right(0.5)[0, 0]) < 1e-8
        val0 = res.schur_right(0.0)
        assert abs(abs(val0[0, 0]) - 1.0 / (6.0 * math.sqrt(2.0))) < 1e-7
        assert abs(abs(val0[1, 0]) - 1.0 / math.sqrt(2.0)) < 1e-7

    def test_strictly_passive_backing_factors(self):
        # no pole in the disc: both Blaschke products are the identity and
        # both Schur factors are the function itself
        system = half_shift_system()
        res = kl_factorize_function(system)
        assert res.kappa == 0
        assert res.blaschke_right.backing.state_dim == 0
        assert res.blaschke_left.backing.state_dim == 0
        pts = disc_points(6, seed=8, radius=0.8)
        want = as_transfer(system).values(pts)
        for side in (res.schur_right, res.schur_left):
            assert np.max(np.abs(side.values(pts) - want)) < 1e-12

    def test_each_factor_is_classified_once(self, monkeypatch):
        # the backing is read through its Hautus spans and never
        # classified; each Blaschke product is certified conservative and
        # each Schur factor passive, once
        rng = np.random.default_rng(3)
        backing = random_conservative_colligation(rng, SignatureSpace(7, 3), 2)
        krylov_calls = spy(monkeypatch, colligation.krylov_report)
        calls = spy(monkeypatch, colligation.system_operator)
        res = kl_factorize_function(backing)
        classified = [args[0] for args in calls]
        assert res.kappa == 3
        assert krylov_calls == []
        assert [id(s) for s in classified] == [
            id(res.blaschke_right.backing), id(res.schur_right.backing),
            id(res.blaschke_left.backing), id(res.schur_left.backing)]

    def test_no_backing_kind_is_decided(self, monkeypatch):
        # the peel carries the backing's signature and decides no kind for
        # the input or for its adjoint, and builds no canonical model.  A
        # strictly passive backing factors; a conservative one under a
        # state change is not passive in its signature, and its Schur
        # factor is refused as not passive in the metric carried from it
        rng = np.random.default_rng(9)
        strict = random_passive_colligation(rng, SignatureSpace(3, 1), 1, 1,
                                            strict=0.25)
        cons = random_conservative_colligation(rng, SignatureSpace(3, 1), 1)
        R = rng.standard_normal((4, 4))
        changed = state_change(cons, np.eye(4) + 0.3 * R / np.linalg.norm(R, 2),
                               cons.state)
        assert system_kind(changed) == SystemKind.NONE
        for system in (strict, changed):
            operators = [colligation.system_operator(s)[0]
                         for s in (system, adjoint_system(system))]
            calls = spy(monkeypatch, indefinite._defect_class)
            models = spy(monkeypatch, schur.canonical_coisometric_realization)
            if system is strict:
                assert kl_factorize_function(system).kappa == 1
            else:
                with pytest.raises(PreconditionError,
                                   match="Schur factor is not passive"):
                    kl_factorize_function(system)
            decided = [sum(np.array_equal(args[0], T) for args in calls)
                       for T in operators]
            assert decided == [0, 0] and models == []
            monkeypatch.undo()

    # ROADMAP item 2's strictly passive probes: (n, kappa, channels, strict)
    PROBES = [(3, 1, 1, 0.0), (4, 1, 1, 0.2), (6, 2, 1, 0.35), (12, 3, 2, 0.35),
              (40, 12, 1, 0.35), (40, 16, 2, 0.35), (60, 20, 1, 0.35),
              (80, 30, 2, 0.35)]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, kappa, m, strict", PROBES)
    def test_strictly_passive_probes(self, n, kappa, m, strict, seed):
        system = random_passive_colligation(
            np.random.default_rng([n, kappa, seed]),
            SignatureSpace(n - kappa, kappa), m, m, strict)
        res = kl_factorize_function(system)
        assert res.kappa == as_transfer(system).disc_pole_count == kappa
        assert res.right_residual <= 1e-7 and res.left_residual <= 1e-7
        for side in (res.schur_right, res.schur_left):
            assert side.backing.kappa == 0
            assert system_kind(side.backing) != SystemKind.NONE

    def test_twice_a_schur_function_is_refused(self):
        system = blaschke_system(0.5)
        doubled = Colligation(system.state, 1, 1, system.A, system.B,
                              2.0 * system.C, 2.0 * system.D)
        with pytest.raises(PreconditionError, match="Schur factor is not passive"):
            kl_factorize_function(doubled)

    def test_peak_between_circle_samples_is_refused(self):
        # |S| peaks at about 1.05 at angle -pi/64, between two of 64 circle
        # samples, where it reads at most 0.56; the backing is not passive
        # and the Schur factor is refused on the state space
        lam = 0.97 * np.exp(1j * np.pi / 64)
        c = math.sqrt(0.0315)
        system = Colligation(SignatureSpace(1, 0), 1, 1, [[lam]], [[c]], [[c]],
                             [[0.0]])
        S = as_transfer(system)
        samples = np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(S.values(samples))) < 0.6
        assert abs(S(np.exp(-1j * np.pi / 64))[0, 0]) > 1.04
        with pytest.raises(PreconditionError, match="Schur factor is not passive"):
            kl_factorize_function(system)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_eigenvalue_on_the_band_is_ambiguous(self, sign):
        lam = 1.0 + sign * DEFAULT_TOL.metric_tol / 2
        system = Colligation(SignatureSpace(1, 0), 1, 1, [[lam]], [[1.0]],
                             [[1.0]], [[0.0]])
        with pytest.raises(AmbiguousSpectrumError):
            kl_factorize_function(system)

    def test_unreached_pole_is_refused_by_the_peel(self):
        # a minimal part never hands the peel such a row: its outside
        # eigenvalue 2 is driven by 1e-12, below the cut rank_tol |T|_F,
        # about 2.3e-10
        T = np.array([[0.5, 1.0], [0.0, 2.0]], dtype=complex)
        B = np.array([[1.0], [1e-12]], dtype=complex)
        with pytest.raises(PreconditionError, match=r"the pole \(0.5"):
            schur._peel(T, B, np.ones((1, 2), complex), np.zeros((1, 1), complex),
                        np.eye(2), DEFAULT_TOL)

    @pytest.mark.parametrize("inputs, outputs", [(0, 1), (1, 0), (0, 0)])
    def test_hidden_outside_mode_adds_no_degree(self, inputs, outputs):
        # an unreachable, unobservable or decoupled negative state with
        # eigenvalue 2 beside an inverse Blaschke factor: the function has
        # one pole in the disc, the backing's state index is 2
        hidden = Colligation(SignatureSpace(0, 1), inputs, outputs, [[2.0]],
                             np.ones((1, inputs)), np.ones((outputs, 1)),
                             np.zeros((outputs, inputs)))
        system = direct_sum(inverse_blaschke_system(0.5), hidden)
        assert system.kappa == as_transfer(system).disc_pole_count == 2
        res = kl_factorize_function(system)
        assert res.kappa == 1
        assert res.blaschke_right.backing.state_dim == 1
        assert res.blaschke_left.backing.state_dim == 1
        for B in (res.blaschke_right, res.blaschke_left):
            assert np.linalg.svd(B(0.5), compute_uv=False)[-1] < 1e-12

    @pytest.mark.parametrize("inputs, outputs", [(0, 1), (1, 0), (0, 0)])
    def test_zero_width_function_has_degree_zero(self, inputs, outputs):
        # nothing is reachable or observable, so the minimal part has no
        # state, whatever the backing's index
        system = Colligation(SignatureSpace(1, 1), inputs, outputs,
                             np.diag([0.5, 2.0]), np.ones((2, inputs)),
                             np.ones((outputs, 2)), np.zeros((outputs, inputs)))
        res = kl_factorize_function(system)
        assert res.kappa == 0
        assert res.schur_right.backing.state_dim == res.schur_left.backing.state_dim == 0

    @pytest.mark.parametrize("n, kappa, m", [(10, 3, 2), (24, 5, 2), (40, 8, 3)])
    def test_agrees_with_the_product_representation(self, n, kappa, m):
        # the Krein-Langer factors are unique up to a constant unitary, on
        # the right of the right pair and on the left of the left pair
        system = random_conservative_colligation(
            np.random.default_rng([n, kappa, m]), SignatureSpace(n - kappa, kappa), m)
        res = kl_factorize_function(system)
        pts = disc_points(8, seed=3, radius=0.5)
        for mode, Sf, Bf in (("right", res.schur_right, res.blaschke_right),
                             ("left", res.schur_left, res.blaschke_left)):
            fac = kl_factorize_system(system, mode)
            schur_vals = as_transfer(fac.schur_factor).values(pts)
            invb_vals = as_transfer(fac.inverse_blaschke_factor).values(pts)
            if mode == "right":
                U = invb_vals @ Bf.values(pts)
                moved = schur_vals @ U[0]
            else:
                U = Bf.values(pts) @ invb_vals
                moved = U[0] @ schur_vals
            assert res.kappa == fac.inverse_blaschke_factor.state_dim == kappa
            # the moved eigenvalues are unobservable and drop out: the
            # Schur factor is minimal and conservative, of the product
            # representation's degree, and its index is read off its state
            assert Sf.backing.state_dim == fac.schur_factor.state_dim == n - kappa
            assert system_kind(Sf.backing) == SystemKind.CONSERVATIVE
            est = negative_squares_estimate(Sf)
            assert (est.estimate, est.route) == (0, "minimal_part")
            assert np.max(np.abs(U - U[0])) <= 1e-10
            assert np.max(np.abs(U[0].conj().T @ U[0] - np.eye(m))) <= 1e-10
            assert np.max(np.abs(Sf.values(pts) - moved)) <= 1e-10
            zeros = np.sort_complex(1.0 / fac.inverse_blaschke_factor._spectrum.eigenvalues)
            smallest = np.linalg.svd(Bf.values(zeros), compute_uv=False)[:, -1]
            assert np.max(smallest) <= 1e-10

    def test_answers_where_the_product_representation_is_ill_conditioned(self):
        # entry 14 of criterion 03's family: the right split of
        # kl_factorize_system has |Z|_2 = 256 and a reconstruction residual
        # of 1.5e-7; its factors' product misses theta by 2e-10 relative
        # at these points, where the pole-by-pole factors below miss it by
        # 1e-14
        system = _mixed_family()[14][0]
        fac = kl_factorize_system(system, "right")
        pts = disc_points(8, seed=3, radius=0.5)
        theta = as_transfer(system).values(pts)
        product = (as_transfer(fac.schur_factor).values(pts)
                   @ as_transfer(fac.inverse_blaschke_factor).values(pts))
        scale = np.maximum(1.0, np.abs(theta).max(axis=(1, 2)))
        assert np.max(np.abs(product - theta).max(axis=(1, 2)) / scale) <= 1e-9
        res = kl_factorize_function(system)
        assert res.kappa == 3
        assert res.right_residual <= 1e-7 and res.left_residual <= 1e-7
        # a left split with |Z|_2 = 465, whose reconstruction residual lies
        # within the rounding scale of Z either side of the bound
        system = random_conservative_colligation(
            np.random.default_rng([8, 40, 8]), SignatureSpace(32, 8), 1)
        res = kl_factorize_function(system)
        assert res.kappa == 8
        assert res.right_residual <= 1e-7 and res.left_residual <= 1e-7


def _svd_survey_norms(V):
    """The norms of _survey_norms from one stacked SVD of V."""
    _, p, m = V.shape
    s = np.linalg.svd(V, compute_uv=False)
    with np.errstate(over="ignore"):
        d = np.max(np.abs(1.0 - s * s), axis=1, initial=0.0)
    return (np.max(s, axis=1, initial=0.0),
            np.maximum(d, 1.0) if m > p else d,
            np.maximum(d, 1.0) if p > m else d)


def _assert_survey_norms_match(got, V):
    """got within a few ulps of the stacked SVD's norms: sigma relative to
    max(1, sigma), the defects to max(1, sigma^2)."""
    want = _svd_survey_norms(V)
    u = np.finfo(float).eps / 2
    scale = np.maximum(1.0, want[0])
    assert np.all(np.abs(got[0] - want[0]) <= 16 * u * scale)
    for g, w in zip(got[1:], want[1:]):
        assert np.array_equal(np.isinf(g), np.isinf(w))
        fin = np.isfinite(w)
        assert np.all(np.abs(g[fin] - w[fin]) <= 16 * u * scale[fin] ** 2)


class TestSurveyNorms:
    """The closed-form norms of _survey_norms, min(p, m) <= 2, against the
    stacked SVD."""

    @pytest.mark.parametrize("p, m", [(1, 2), (2, 1), (1, 4), (4, 1), (2, 2),
                                      (2, 3), (3, 2), (3, 3), (0, 2), (2, 0)])
    def test_random_and_unitary_values(self, p, m):
        rng = np.random.default_rng([p, m, 61])
        V = (rng.standard_normal((64, p, m)) + 1j * rng.standard_normal((64, p, m))) / 2
        if p and m:
            # isometric and co-isometric values, a hair off, where a
            # cancelling formula would lose the defect
            k = max(p, m)
            Q = np.linalg.qr(rng.standard_normal((8, k, k))
                             + 1j * rng.standard_normal((8, k, k)))[0][:, :p, :m]
            # rank-one values whose squared scale overflows: a zero s^2
            # beside an infinite one
            V = np.concatenate([V, Q, Q * (1.0 + 1e-13), Q * 1e200,
                                np.ones((2, p, m)) * np.array([1e200, 1e300])[:, None, None]])
        _assert_survey_norms_match(schur._survey_norms(V), V)

    @pytest.mark.parametrize("system, inner, co_inner, masked", [
        (isometric_column_system(), True, False, 0),
        (counterexample_observable_system(), False, True, 0),
        (blaschke_potapov_factor(0.3 + 0.2j, np.exp(0.4j),
                                 np.array([1.0, 1.0j]) / math.sqrt(2.0), 2),
         True, True, 0),
        # a pole at z = 1, the first sample, beside a Blaschke factor
        (direct_sum(Colligation(SignatureSpace(1, 0), 1, 1, [[1.0]], [[1.0]],
                                [[0.5]], [[0.0]]), blaschke_system(0.5)),
         False, False, 1),
    ], ids=["inner", "co-inner", "bi-inner", "pole-masked"])
    def test_surveys(self, system, inner, co_inner, masked):
        sig, dr, dl, vals = schur._circle_survey(
            TransferFunction(system), 256, DEFAULT_TOL)
        ok = ~np.isnan(vals).any(axis=(1, 2))
        assert np.count_nonzero(~ok) == masked
        assert np.array_equal(np.isnan(sig), ~ok) and np.isnan(dr[~ok]).all()
        _assert_survey_norms_match((sig[ok], dr[ok], dl[ok]), vals[ok])
        rep = boundary_behavior(system)
        assert (rep.inner, rep.co_inner) == (inner, co_inner)


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

    @pytest.mark.parametrize("samples", [1, 2, 3, 256])
    def test_inner_flags_take_at_least_2n_plus_1_samples(self, samples):
        # (1 + z)/2 is inner nowhere but at z = 1, the one root of unity
        # a single sample would see
        r = math.sqrt(0.5)
        system = Colligation(SignatureSpace(1, 0), 1, 1, [[0.0]], [[r]], [[r]], [[0.5]])
        rep = boundary_behavior(system, replace(DEFAULT_TOL, boundary_samples=samples))
        assert rep.angles.size == max(samples, 3)
        assert rep.contractive and not (rep.inner or rep.co_inner or rep.bi_inner)

    @pytest.mark.parametrize("samples, inner", [(1, False), (5, False), (6, True), (256, True)])
    def test_pole_skips_below_2n_plus_1_leave_inner_unproven(self, samples, inner):
        # the inner function z beside a decoupled state at 1, whose pole
        # guard skips the sample at z = 1: five points leave four usable
        system = Colligation(SignatureSpace(2, 0), 1, 1, np.diag([0.0, 1.0]),
                             [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        rep = boundary_behavior(system, replace(DEFAULT_TOL, boundary_samples=samples))
        assert rep.angles.size == max(samples, 5) and rep.skipped == 1
        assert rep.inner == rep.co_inner == rep.bi_inner == inner
        if not inner:
            assert rep.note == ("4 usable boundary samples, fewer than the 5 "
                                "an inner verdict needs")

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

    def test_cached_survey_is_read_only(self):
        # one function's surveys are shared by every later request, so no
        # caller may write into them
        S = TransferFunction(half_shift_system())
        rep = boundary_behavior(S)
        served = schur._circle_survey(S, 128, DEFAULT_TOL)
        for x in (rep.sigma_max, rep.defect_right, rep.defect_left, *served):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0
        assert np.array_equal(served[0], rep.sigma_max[::2])


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

    def test_scalar_defect_factors_once(self, monkeypatch):
        # 1 - |S|^2 is both defects of a scalar S: one fresh survey of the
        # 128th roots of unity on the system itself feeds the one
        # factorization, and no adjoint system is surveyed
        rng = np.random.default_rng(11)
        system = random_passive_colligation(rng, SignatureSpace(3, 1), 1, 1,
                                            strict=0.25)
        calls = spy(monkeypatch, schur._fresh_survey)
        res = defect(system)
        assert not res.phi_is_zero
        assert [(args[0].backing, args[1]) for args in calls] == [(system, 128)]

    def test_coefficients_are_complex(self):
        # the spectral factor of z/2 has no roots, so its numerator is a
        # constant; it is complex128 like every other coefficient list
        res = defect(half_shift_system())
        assert res.phi.numerator.shape == (1,)
        for fn in (res.phi, res.psi):
            assert fn.numerator.dtype == fn.denominator.dtype == np.complex128
        rat = schur.RationalScalar([1.0, 0.5], [1])
        assert rat.numerator.dtype == rat.denominator.dtype == np.complex128
        assert rat(0.5) == 1.25

    def test_scalar_psi_is_phi(self):
        rng = np.random.default_rng(5)
        system = random_passive_colligation(rng, SignatureSpace(2, 1), 1, 1,
                                            strict=0.25)
        res = defect(system)
        assert not res.psi_is_zero and res.psi_is_zero == res.phi_is_zero
        assert np.array_equal(res.psi.numerator, res.phi.numerator)
        assert np.array_equal(res.psi.denominator, res.phi.denominator)

    def test_one_pole_on_a_sample_raises(self):
        # a pole at one 128th root of unity: the other samples survive and
        # decide a nonzero defect, but its factorization needs every sample
        w = np.exp(2j * np.pi * 5 / 128)
        system = Colligation(SignatureSpace(1, 0), 1, 1, [[w]], [[0.5]],
                             [[0.5]], [[0.0]])
        with pytest.raises(PoleProximityError) as info:
            defect(system)
        assert abs(info.value.point - np.conj(w)) < 1e-12

    @pytest.mark.parametrize("n, kappa", [(32, 0), (40, 0), (64, 0), (80, 0),
                                          (40, 8), (64, 8)])
    def test_strictly_passive_sweep(self, n, kappa):
        # a certified outer phi matches 1 - |S|^2 off the survey too, or the
        # factorization is refused typed; never a silently wrong phi
        for seed in range(5):
            system = _strict_scalar(n, kappa, seed)
            try:
                res = defect(system)
            except (InternalConsistencyError, PreconditionError):
                continue
            assert not res.phi_is_zero
            _assert_outer_defect(system, res)

    def test_forty_states_answer(self):
        # the survey's own 128 values fix the degree-40 coefficients, so
        # the factorization is certified where a second sampling circle
        # inside the disc amplified rounding past the bound
        system = _strict_scalar(40, 0, 0)
        res = defect(system)
        assert res.boundary_residual <= 1e-8
        _assert_outer_defect(system, res)

    @pytest.mark.parametrize("n, kappa, seed", [(2, 0, 0), (4, 1, 1), (8, 0, 2),
                                                (8, 3, 3), (12, 2, 4)])
    def test_laurent_coefficients_match_a_sampling_circle(self, n, kappa, seed):
        # |phi|^2 |d|^2 on the circle is the trigonometric polynomial whose
        # coefficients the radius-0.5 circle gives, at held-out points
        system = _strict_scalar(n, kappa, seed)
        res = defect(system)
        c = _sampling_circle_laurent(system)
        z = _held_out_circle()
        lvals = 2.0 * np.polynomial.polynomial.polyval(z, c).real - c[0].real
        dvals = np.polynomial.polynomial.polyval(
            z, np.poly(system._spectrum.eigenvalues))
        got = np.abs(res.phi(z) * dvals) ** 2
        assert np.max(np.abs(got - lvals)) <= 1e-9 * max(1.0, np.max(np.abs(c)))

    def test_scalar_defect_evaluates_no_second_circle(self, monkeypatch):
        # the coefficients come from the survey alone: the survey's own
        # batch of 128 points is the one transfer evaluation
        rng = np.random.default_rng(11)
        system = random_passive_colligation(rng, SignatureSpace(3, 1), 1, 1,
                                            strict=0.25)
        calls = spy(monkeypatch, colligation.transfer_values)
        res = defect(system)
        assert not res.phi_is_zero
        assert [len(args[1]) for args in calls] == [128]

    @pytest.mark.parametrize("n, samples", [(63, 128), (64, 256), (96, 256),
                                            (128, 512)])
    def test_survey_has_two_n_plus_one_points(self, monkeypatch, n, samples):
        system = _strict_scalar(n, 0, 0)
        calls = spy(monkeypatch, schur._fresh_survey)
        defect(system)
        assert [(args[0].backing, args[1]) for args in calls] == [(system, samples)]
        assert samples >= 2 * n + 1


def _system_blocks(system):
    return [system.A, system.B, system.C, system.D, system.state.signs]


class TestTriangularSolveRoutes:
    """The triangular solves of _peel and _stein, one ztrtrs call each
    (exceptions._trsolve), bitwise scipy's wrapper with the same
    arguments, on the functions of the factorization and model tests."""

    @staticmethod
    def functions():
        family = [entry[0] for entry in _mixed_family()[:6]]
        return family + [counterexample_observable_system()] + [
            random_conservative_colligation(np.random.default_rng([n, kappa, 63]),
                                            SignatureSpace(n - kappa, kappa), io)
            for n, kappa, io in ((6, 2, 2), (10, 3, 2), (5, 0, 2))]

    def test_peel_is_bitwise_the_wrappers(self, monkeypatch):
        # both peels of each factorization solve with trans "C" on the
        # Cholesky factor of the peeled metric
        peel = schur._peel
        calls = spy(monkeypatch, peel)
        for system in self.functions():
            kl_factorize_function(system)
        assert len(calls) == 2 * len(self.functions())

        def peeled():
            return [list(blocks) + _system_blocks(inner)
                    for blocks, inner in (peel(*args) for args in calls)]

        got = peeled()
        monkeypatch.setattr(schur, "_trsolve", scipy_trsolve)
        assert bitwise_equal(got, peeled())

    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    def test_stein_is_bitwise_the_wrappers(self, monkeypatch, n):
        # one lower triangular solve per column, on a C-ordered block
        rng = np.random.default_rng([n, 64])
        T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        T[np.diag_indices(n)] = 0.9 * np.exp(2j * np.pi * rng.random(n))
        Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        calls = spy_attr(monkeypatch, exceptions, "ztrtrs")
        got = schur._stein(T, Q)
        assert len(calls) == n
        monkeypatch.setattr(schur, "_trsolve", scipy_trsolve)
        assert bitwise_equal(got, schur._stein(T, Q))

    def test_factors_and_models_are_bitwise_the_wrappers(self, monkeypatch):
        def outputs():
            out = []
            for system in self.functions():
                res = kl_factorize_function(system)
                out += [_system_blocks(f.backing) for f in (
                    res.schur_right, res.blaschke_right, res.schur_left, res.blaschke_left)]
                out.append([res.right_residual, res.left_residual])
                try:
                    out.append(_system_blocks(canonical_coisometric_realization(system)))
                except PreconditionError as exc:
                    out.append(str(exc))
            return out

        got = outputs()
        monkeypatch.setattr(schur, "_trsolve", scipy_trsolve)
        want = outputs()
        assert [isinstance(v, str) for v in got] == [isinstance(v, str) for v in want]
        assert all(g == w if isinstance(w, str) else bitwise_equal(g, w)
                   for g, w in zip(got, want))

    def test_stateless_unitary_constant(self, monkeypatch):
        # the peels and the Stein equation of a 0-state system solve on
        # empty blocks, with no LAPACK call
        calls = spy_attr(monkeypatch, exceptions, "ztrtrs")
        res = kl_factorize_function(identity_feedthrough(2))
        assert res.kappa == 0
        for factor in (res.schur_right, res.blaschke_right, res.schur_left, res.blaschke_left):
            assert factor.backing.state_dim == 0
        assert res.right_residual == res.left_residual == 0.0
        model = canonical_coisometric_realization(identity_feedthrough(2))
        assert model.state_dim == 0
        assert np.array_equal(model.D, np.eye(2))
        assert calls == []


def _strict_scalar(n, kappa, seed):
    return random_passive_colligation(
        np.random.default_rng([n, kappa, seed]),
        SignatureSpace(n - kappa, kappa), 1, 1, strict=0.35)


def _held_out_circle(count=1000):
    """count circle points, each halfway between two count-th roots of
    unity, so none is a survey point."""
    return np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)


def _assert_outer_defect(system, res):
    """|phi|^2 within 1e-8 max(1, max |1 - |S|^2|) of 1 - |S|^2 at 1,000
    held-out circle points, and no numerator root in the open disc."""
    S = as_transfer(system)
    z = _held_out_circle()
    want = np.concatenate([1.0 - np.abs(S.values(part)[:, 0, 0]) ** 2
                           for part in np.split(z, 4)])
    gap = np.max(np.abs(np.abs(res.phi(z)) ** 2 - want))
    assert gap <= 1e-8 * max(1.0, float(np.max(np.abs(want))))
    if res.phi.numerator.size > 1:
        assert np.min(np.abs(np.roots(res.phi.numerator[::-1]))) >= 1.0 - 1e-8


def _sampling_circle_laurent(system):
    """c_k of |d|^2 - |n|^2 on the circle, k = 0..n, from the coefficients
    of d = det(I - zA) and of n = S d, the latter read off a circle of
    radius 0.5 at n + 1 points and rescaled by 0.5^-k.  An oracle only
    for small n, where that rescaling amplifies rounding by at most 2^n."""
    S = as_transfer(system)
    # np.poly's descending coefficients of prod (x - lam) are the ascending
    # ones of prod (1 - lam z)
    d = np.poly(system._spectrum.eigenvalues).astype(complex)
    nodes = 0.5 * np.exp(2j * np.pi * np.arange(d.size) / d.size)
    num = np.fft.fft(S.values(nodes)[:, 0, 0] * np.polynomial.polynomial.polyval(
        nodes, d)) / d.size / 0.5 ** np.arange(d.size)
    return np.array([np.vdot(d[:d.size - k], d[k:]) - np.vdot(num[:d.size - k], num[k:])
                     for k in range(d.size)])


def _scaled_output(system, eps):
    """The system with C and D scaled by 1 - eps."""
    return Colligation(system.state, system.input_dim, system.output_dim,
                       system.A, system.B, (1.0 - eps) * system.C,
                       (1.0 - eps) * system.D)


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
    def test_evaluated_only_at_held_out_points(self, monkeypatch, system):
        # the model is read off the state space: no kernel Gram is built,
        # and S is evaluated once at each of the 8 held-out points, and
        # nowhere else
        grams = spy(monkeypatch, schur._gram_from_values)
        calls = spy(monkeypatch, colligation.transfer_values)
        canonical_coisometric_realization(system)
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is system])
        held = disc_points(8, seed=DEFAULT_TOL.seed * 499 + 11, radius=0.8,
                           exclude=as_transfer(system).poles, min_dist=1e-4)
        assert grams == []
        assert np.array_equal(np.sort_complex(evaluated), np.sort_complex(held))

    @pytest.mark.parametrize("system", [
        blaschke_system(0.5),
        counterexample_observable_system(),
        random_conservative_colligation(np.random.default_rng(5),
                                        SignatureSpace(4, 2), 2),
        random_conservative_colligation(np.random.default_rng([40, 8, 2]),
                                        SignatureSpace(32, 8), 2),
    ])
    def test_reproducing_identity_matches_dense_solves(self, monkeypatch, system):
        # Rz = (I - conj(z) A^H)^-1 C^H and Rw of the kernel check are one
        # adjoint _sweep of the p columns of C^H on the model's Schur form
        # at the two held-out points, within 1e-12 relative of the dense
        # solves of C (I - zA)^-1 they replace
        calls = []
        real = schur._sweep

        def recording(*args, **kwargs):
            calls.append((args, kwargs, real(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(schur, "_sweep", recording)
        canonical_coisometric_realization(system)
        [((model, W, z, _), kwargs, (X, ok))] = calls
        n, p = model.state_dim, model.output_dim
        assert kwargs == {"adjoint": True} and ok.all() and W.shape == (n, p)
        held = disc_points(8, seed=DEFAULT_TOL.seed * 499 + 11, radius=0.8,
                           exclude=as_transfer(system).poles, min_dist=1e-4)
        assert np.array_equal(z, held[:2])
        for k, z in enumerate(held[:2]):
            want = np.linalg.solve((np.eye(n) - z * model.A).T, model.C.T).T
            got = (model._spectrum.Z @ X[:, k]).conj().T
            assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("system", [
        counterexample_observable_system(),
        random_conservative_colligation(np.random.default_rng(5),
                                        SignatureSpace(4, 2), 2),
        random_conservative_colligation(np.random.default_rng(6),
                                        SignatureSpace(9, 3), 1),
    ])
    def test_model_observability_takes_one_hautus_side(self, monkeypatch, system):
        # the model's observability is read off the observable side of its
        # Schur form alone: one zgeev on the model's form, and no Krylov
        # report with its reachable side and complement kinds
        reports = spy(monkeypatch, colligation.krylov_report)
        eig = spy_attr(monkeypatch, colligation, "zgeev")
        model = canonical_coisometric_realization(system)
        T, left, right = eig[-1][:3]
        assert reports == []
        assert (left, right) == (1, 1)
        assert T is model._spectrum.T
        assert sum(args[0] is T for args in eig) == 1
        monkeypatch.undo()
        assert classify(model).observable

    @pytest.mark.parametrize("n, kappa, io", [(12, 3, 3), (24, 6, 2),
                                              (40, 8, 2)])
    def test_minimal_conservative_model_is_unitarily_similar(self, n, kappa, io):
        system = random_conservative_colligation(
            np.random.default_rng(n), SignatureSpace(n - kappa, kappa), io)
        assert classify(system).minimal
        S = as_transfer(system)
        model = canonical_coisometric_realization(S)
        assert (model.state.pos, model.state.neg) == (n - kappa, kappa)
        assert unitary_similarity(model, system) is not None
        held = disc_points(6, seed=n, radius=0.8, exclude=S.poles,
                           min_dist=1e-2)
        for z in held:
            want = S(z)
            assert np.linalg.norm(transfer_eval(model, z) - want, 2) <= (
                1e-7 * max(1.0, np.linalg.norm(want, 2)))

    def test_large_conservative_backing(self):
        # one channel and 80 states: the model's dimension is read off the
        # state space, where a sampled kernel rank falls short
        system = random_conservative_colligation(
            np.random.default_rng([80, 20, 1]), SignatureSpace(60, 20), 1)
        model = canonical_coisometric_realization(system)
        assert (model.state.pos, model.state.neg) == (60, 20)

    @pytest.mark.parametrize("a", [0.5, 0.3 + 0.4j])
    @pytest.mark.parametrize("changed", [False, True])
    def test_reflection_pair(self, a, changed):
        # the eigenvalues conj(a) and 1/a multiply to 1 under the Stein
        # operator of P - A P A^H, singular there; the injected equation
        # is not
        pair = direct_sum(blaschke_system(a), inverse_blaschke_system(a))
        system = pair
        if changed:
            system = state_change(pair, np.array([[1.0, 0.3], [0.2, 1.1]]),
                                  pair.state)
            assert system_kind(system) == SystemKind.NONE
        model = canonical_coisometric_realization(system)
        assert (model.state.pos, model.state.neg) == (1, 1)
        assert unitary_similarity(model, pair) is not None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_eigenvalue_on_the_band_is_ambiguous(self, sign):
        lam = 1.0 + sign * DEFAULT_TOL.metric_tol / 2
        system = Colligation(SignatureSpace(1, 0), 1, 1, [[lam]], [[1.0]],
                             [[1.0]], [[0.0]])
        with pytest.raises(AmbiguousSpectrumError):
            canonical_coisometric_realization(system)

    def test_stein_back_substitution(self):
        rng = np.random.default_rng(4)
        T = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        T[np.diag_indices(6)] = 0.9 * np.exp(2j * np.pi * rng.random(6))
        Q = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        X = schur._stein(T, Q)
        assert np.allclose(X, scipy.linalg.solve_discrete_lyapunov(T.conj().T, Q),
                           atol=1e-12)

    @pytest.mark.parametrize("n, kappa, io", [(5, 0, 2), (8, 0, 3), (6, 2, 3),
                                              (9, 3, 2)])
    def test_coinner_row_under_state_change(self, n, kappa, io):
        # dropping an output of a conservative system leaves a co-inner
        # function; a non-unitary state change makes the backing
        # non-passive, and its zero left defect still gives a model on
        # the n states of the minimal realization
        rng = np.random.default_rng(n + 10 * kappa)
        cons = random_conservative_colligation(
            rng, SignatureSpace(n - kappa, kappa), io)
        row = Colligation(cons.state, io, io - 1, cons.A, cons.B,
                          cons.C[:-1], cons.D[:-1])
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        system = state_change(row, np.eye(n) + 0.3 * R / np.linalg.norm(R, 2),
                              cons.state)
        assert system_kind(system) == SystemKind.NONE
        S = as_transfer(system)
        model = canonical_coisometric_realization(S)
        assert (model.state.pos, model.state.neg) == (n - kappa, kappa)
        for z in disc_points(6, seed=n, radius=0.8, exclude=S.poles,
                             min_dist=1e-2):
            want = S(z)
            assert np.linalg.norm(transfer_eval(model, z) - want, 2) <= (
                1e-7 * max(1.0, np.linalg.norm(want, 2)))

    @pytest.mark.parametrize("system", [
        random_passive_colligation(np.random.default_rng(2),
                                   SignatureSpace(3, 0), 2, 1, strict=0.25),
        random_passive_colligation(np.random.default_rng(3),
                                   SignatureSpace(4, 1), 1, 2, strict=0.25),
        Colligation(SignatureSpace(0, 0), 2, 1, np.zeros((0, 0)),
                    np.zeros((0, 2)), np.zeros((1, 0)), [[0.6, 0.0]]),
        # a conservative system's output scaled by 1 - 1e-7: a left defect
        # of 2e-7, small beside the scale of its co-isometry equations
        _scaled_output(random_conservative_colligation(
            np.random.default_rng([24, 6, 2]), SignatureSpace(18, 6), 2), 1e-7),
    ])
    def test_nonzero_left_defect_refused_before_any_evaluation(self, monkeypatch,
                                                               system):
        calls = spy(monkeypatch, colligation.transfer_values)
        with pytest.raises(PreconditionError, match="left defect"):
            canonical_coisometric_realization(system)
        assert calls == []


def _kernel_probe(n, seed):
    """A scalar conservative factor of n Hilbert states and a 3-state one,
    drawn from one stream."""
    rng = np.random.default_rng([n, seed, 7])
    return (random_conservative_colligation(rng, SignatureSpace(n, 0), 1),
            random_conservative_colligation(rng, SignatureSpace(3, 0), 1))


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

    @pytest.mark.parametrize("n, size", [(None, 24), (24, 48)])
    def test_second_factor_evaluated_once_per_kernel_point(self, monkeypatch,
                                                            n, size):
        # the nested kernel plan serves both the second factor's Gram and
        # the images of the first factor's sections, and a doubled plan
        # evaluates only its fresh points
        if n is None:
            first, second = blaschke_system(1.0 / 3.0), blaschke_system(0.5)
        else:
            first, second = _kernel_probe(n, 0)
        calls = spy(monkeypatch, colligation.transfer_values)
        check_kernel_decomposition(first, second)
        evaluated = np.concatenate([np.ravel(args[1]) for args in calls
                                    if args[0] is second])
        plan = disc_points(size, seed=DEFAULT_TOL.seed * 271 + 3, radius=0.9)
        held = disc_points(8, seed=DEFAULT_TOL.seed * 499 + 11, radius=0.8,
                           exclude=as_transfer(second).poles, min_dist=1e-4)
        assert np.array_equal(np.sort_complex(evaluated),
                              np.sort_complex(np.concatenate([plan, held])))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [16, 20, 24, 32, 40])
    def test_scalar_probe_holds(self, n, seed):
        # from n = 20 on, and at n = 16 for seed 1, the ranks (n, 3, n + 3)
        # need a plan doubled to 48-384 points
        first, second = _kernel_probe(n, seed)
        rep = check_kernel_decomposition(first, second)
        assert rep.holds and rep.obstruction_dimension == 0
        assert (rep.rank_first, rep.rank_second, rep.rank_product) == (n, 3, n + 3)
        assert rep.isometry_residual <= 1e-6

    def test_unmet_ranks_at_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr("_builders._KERNEL_PLAN_CAP", 48)
        with pytest.raises(PreconditionError,
                           match=r"kernel Gram ranks .* at 48 disc points do "
                                 r"not meet the state-space ranks \(40, 3, 43\)"):
            check_kernel_decomposition(*_kernel_probe(40, 0))

    def test_controllable_variant(self):
        rep = check_kernel_decomposition(blaschke_system(1.0 / 3.0),
                                         blaschke_system(0.5),
                                         variant="controllable")
        assert rep.holds and rep.variant == "controllable"

    def test_non_schur_first_factor_rejected(self):
        with pytest.raises(PreconditionError, match="first factor must be Schur class"):
            check_kernel_decomposition(inverse_blaschke_system(0.5),
                                       blaschke_system(0.5))

    def test_poles_near_the_circle_are_ambiguous(self):
        # every eigenvalue sits just inside the circle at a 32nd root of
        # unity, within metric_tol of it; |S(0.999)| is ~4e3
        roots = np.exp(2j * np.pi * np.arange(32) / 32)
        first = Colligation(SignatureSpace(32, 0), 1, 1,
                            np.diag((1.0 - 1e-14) * np.conj(roots)),
                            np.full((32, 1), 4.0), np.ones((1, 32)),
                            np.zeros((1, 1)))
        assert as_transfer(first).disc_pole_count == 0
        with pytest.raises(AmbiguousSpectrumError):
            check_kernel_decomposition(first, blaschke_system(0.5))

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
