import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import zgesvd

from pontsys import colligation
from pontsys.colligation import (
    BareRealization,
    Colligation,
    SystemKind,
    _certify_bicontraction,
    adjoint_system,
    classify,
    is_dilation_of,
    krylov_report,
    markov,
    realize_from_taylor,
    restriction,
    simp_kar_check,
    state_change,
    system_kind,
    system_operator,
    to_canonical,
    transfer_eval,
    unitary_similarity,
    weak_similarity,
)
from pontsys.exceptions import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    OrderAmbiguityError,
    PoleProximityError,
    PreconditionError,
)
from pontsys.indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    MetricClass,
    SignatureSpace,
    SubspaceKind,
    Tolerances,
    as_matrix,
    is_psd,
    metric_classify,
    metric_defects,
    metric_signs,
    nullspace,
)
from pontsys import indefinite, sampling, schur
from pontsys.products import cascade, obstruction_controllable, obstruction_observable
from pontsys.sampling import (
    random_conservative_colligation,
    random_j_unitary,
    random_passive_colligation,
)

from _builders import corner_checked_kind, direct_sum, same_span, spy, spy_attr

ROOT3 = math.sqrt(3.0)


def blaschke_system(alpha):
    """Conservative scalar system for (z - alpha) / (1 - conj(alpha) z)."""
    alpha = complex(alpha)
    r = math.sqrt(1.0 - abs(alpha) ** 2)
    return Colligation(SignatureSpace(1, 0), 1, 1,
                       [[np.conj(alpha)]], [[r]], [[r]], [[-alpha]])


def inverse_blaschke_system(alpha):
    """Its inverse: one negative state square, transfer 1/b_alpha."""
    alpha = complex(alpha)
    r = math.sqrt(1.0 - abs(alpha) ** 2)
    return Colligation(SignatureSpace(0, 1), 1, 1,
                       [[1.0 / alpha]], [[-r / alpha]], [[r / alpha]],
                       [[-1.0 / alpha]])


def blaschke(alpha, z):
    return (z - alpha) / (1.0 - np.conj(alpha) * z)


class TestConstruction:
    def test_block_shapes_enforced(self):
        with pytest.raises(DimensionMismatchError):
            Colligation(SignatureSpace(1, 0), 1, 1,
                        [[0.5]], [[1.0], [2.0]], [[1.0]], [[0.0]])
        with pytest.raises(DimensionMismatchError):
            BareRealization(np.eye(2), np.ones((2, 1)), np.ones((1, 1)), np.ones((1, 1)))

    def test_system_operator_signs(self):
        sys1 = inverse_blaschke_system(0.5)
        T, dom, cod = system_operator(sys1)
        assert T.shape == (2, 2)
        assert np.array_equal(dom, [-1.0, 1.0])
        assert np.array_equal(cod, [-1.0, 1.0])
        assert (int(np.sum(dom > 0)), int(np.sum(dom < 0))) == (1, 1)
        assert sys1.kappa == 1

    def test_half_disc_oracle_operator(self):
        # alpha = 1/2 gives the explicit symmetric system operator
        T, _, _ = system_operator(blaschke_system(0.5))
        expect = np.array([[0.5, ROOT3 / 2], [ROOT3 / 2, -0.5]])
        assert np.allclose(T, expect)


class TestClassify:
    def test_blaschke_is_conservative(self):
        cls = classify(blaschke_system(0.3 + 0.4j))
        assert cls.kind == SystemKind.CONSERVATIVE
        assert cls.controllable and cls.observable and cls.simple and cls.minimal

    def test_inverse_blaschke_is_conservative(self):
        cls = classify(inverse_blaschke_system(0.5))
        assert cls.kind == SystemKind.CONSERVATIVE
        assert cls.minimal

    def test_random_ensembles(self):
        rng = np.random.default_rng(11)
        for neg in (0, 1, 2):
            sp = SignatureSpace(3, neg)
            con = random_conservative_colligation(rng, sp, 2)
            assert system_kind(con) == SystemKind.CONSERVATIVE
            pas = random_passive_colligation(rng, sp, 2, 2, strict=0.2)
            assert classify(pas).is_passive

    def test_expansion_is_unclassified(self):
        sys1 = Colligation(SignatureSpace(1, 0), 1, 1,
                           [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert system_kind(sys1) == SystemKind.NONE

    def test_krylov_report_is_held_out_of_equality(self):
        system = blaschke_system(0.5)
        cls = classify(system)
        assert cls.krylov.controllable and cls.krylov.index_preserving
        assert cls == classify(system) and "krylov" not in repr(cls)


def _sweep_systems():
    """Seeded passive, conservative, isometric and coisometric systems
    with n in {8, 16, 40} and kappa <= 8, each with its expected kind."""
    rng = np.random.default_rng(41)
    for n in (8, 16, 40):
        for kappa in (0, 3, 8):
            sp = SignatureSpace(n - kappa, kappa)
            for io in (1, 2):
                for strict in (0.2, 0.0):
                    yield (random_passive_colligation(rng, sp, io, io, strict=strict),
                           SystemKind.PASSIVE)
                con = random_conservative_colligation(rng, sp, io)
                yield con, SystemKind.CONSERVATIVE
                wide = random_conservative_colligation(rng, sp, io + 1)
                # dropping an input channel of a unitary leaves an
                # isometry, dropping an output channel a coisometry
                yield (Colligation(sp, io, io + 1, wide.A, wide.B[:, :io],
                                   wide.C, wide.D[:, :io]), SystemKind.ISOMETRIC)
                yield (Colligation(sp, io + 1, io, wide.A, wide.B,
                                   wide.C[:io], wide.D[:io]), SystemKind.COISOMETRIC)


class TestCornerCertificates:
    def test_conservative_corners_take_no_eigen_solve(self, monkeypatch):
        # both defects of a conservative system operator are zero, so its
        # bicontraction certificate has no defect left to factor
        rng = np.random.default_rng(40)
        system = random_conservative_colligation(rng, SignatureSpace(32, 8), 2)
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        psd = spy(monkeypatch, is_psd)
        assert system_kind(system) == SystemKind.CONSERVATIVE
        assert calls == [] and psd == []

    def test_one_certificate_agrees_with_the_corner_oracle(self, monkeypatch):
        calls = spy(monkeypatch, is_psd)
        for system, want in _sweep_systems():
            assert corner_checked_kind(system) == system_kind(system) == want
            before = len(calls)
            assert classify(system).kind == want
            assert len(calls) - before <= 1

    def test_indefinite_dual_defect_is_refused(self):
        # one positive state mapped into one positive and one negative
        # coordinate: a contraction whose dual defect diag(3/4, -1) is
        # indefinite, which equal negative indices would rule out
        M, dom, cod = [[0.5], [0.0]], [1.0], [1.0, -1.0]
        verdict = metric_classify(M, dom, cod)
        assert verdict == MetricClass.CONTRACTION
        primal, dual = metric_defects(M, dom, cod)
        with pytest.raises(InternalConsistencyError):
            _certify_bicontraction(verdict, primal, dual, DEFAULT_TOL)
        # the slack is min(1/2, 10 psd_tol) = 1e-8 at the default psd_tol
        for verdict in (MetricClass.CONTRACTION, MetricClass.ISOMETRY):
            _certify_bicontraction(verdict, primal, np.diag([1.0, -5e-9]), DEFAULT_TOL)
            with pytest.raises(InternalConsistencyError):
                _certify_bicontraction(verdict, primal, np.diag([1.0, -2e-8]),
                                       DEFAULT_TOL)
        _certify_bicontraction(MetricClass.COISOMETRY, np.diag([1.0, -5e-9]), dual,
                               DEFAULT_TOL)
        with pytest.raises(InternalConsistencyError):
            _certify_bicontraction(MetricClass.COISOMETRY, np.diag([1.0, -2e-8]),
                                   dual, DEFAULT_TOL)
        for verdict in (MetricClass.UNITARY, MetricClass.NONE):
            _certify_bicontraction(verdict, dual, dual, DEFAULT_TOL)

    def test_conservative_classify_takes_no_eigen_solve(self, monkeypatch):
        rng = np.random.default_rng(40)
        system = random_conservative_colligation(rng, SignatureSpace(32, 8), 2)
        calls = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        assert classify(system).kind == SystemKind.CONSERVATIVE
        assert calls == []


class TestTransfer:
    def test_blaschke_values(self):
        sys1 = blaschke_system(0.5)
        for z in (0.0, 0.3, -0.7, 0.2 + 0.4j):
            assert abs(transfer_eval(sys1, z)[0, 0] - blaschke(0.5, z)) < 1e-12
        # boundary point z = 1 is still a regular point here
        assert abs(transfer_eval(sys1, 1.0)[0, 0] - 1.0) < 1e-12

    def test_inverse_blaschke_values(self):
        sys1 = inverse_blaschke_system(0.5)
        assert abs(sys1.A[0, 0] - 2.0) < 1e-12
        assert abs(sys1.D[0, 0] + 2.0) < 1e-12
        for z in (0.1, -0.3, 0.2 - 0.1j):
            assert abs(transfer_eval(sys1, z)[0, 0] - 1.0 / blaschke(0.5, z)) < 1e-10

    def test_pole_rejection(self):
        sys1 = inverse_blaschke_system(0.5)  # pole of the transfer at z = 1/2
        with pytest.raises(PoleProximityError) as info:
            transfer_eval(sys1, 0.5)
        assert abs(info.value.nearest_pole - 0.5) < 1e-12

    def test_empty_state(self):
        sys1 = Colligation(SignatureSpace(0, 0), 2, 2, np.zeros((0, 0)),
                           np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
        assert np.allclose(transfer_eval(sys1, 0.9), np.eye(2))

    def test_markov_coefficients(self):
        sys1 = blaschke_system(0.5)
        assert abs(markov(sys1, 0)[0, 0] + 0.5) < 1e-12
        assert abs(markov(sys1, 1)[0, 0] - 0.75) < 1e-12
        alpha = 0.3 + 0.2j
        sys2 = blaschke_system(alpha)
        for k in range(1, 6):
            expect = (1 - abs(alpha) ** 2) * np.conj(alpha) ** (k - 1)
            assert abs(markov(sys2, k)[0, 0] - expect) < 1e-12
        with pytest.raises(InputError):
            markov(sys1, -1)

    def test_markov_matches_circle_quadrature(self):
        # independent route: Taylor coefficients via DFT on a safe radius.
        # Hilbert state keeps A a contraction, so every pole has modulus > 1
        # and the truncation error of the 64-node rule is negligible.
        rng = np.random.default_rng(19)
        sys1 = random_passive_colligation(rng, SignatureSpace(3, 0), 2, 2, strict=0.1)
        radius, nodes = 0.4, 64
        samples = []
        for j in range(nodes):
            z = radius * np.exp(2j * np.pi * j / nodes)
            samples.append(transfer_eval(sys1, z))
        stack = np.array(samples)
        for k in range(7):
            phases = np.exp(-2j * np.pi * k * np.arange(nodes) / nodes)
            coeff = (phases[:, None, None] * stack).mean(axis=0) / radius ** k
            assert np.linalg.norm(coeff - markov(sys1, k), 2) < 1e-9

    def test_adjoint_transfer_relation(self):
        rng = np.random.default_rng(3)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 3, strict=0.1)
        adj = adjoint_system(sys1)
        for z in (0.2, 0.3 - 0.1j, -0.25j):
            lhs = transfer_eval(adj, z)
            rhs = transfer_eval(sys1, np.conj(z)).conj().T
            assert np.linalg.norm(lhs - rhs, 2) < 1e-10

    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(4)
        sys1 = random_passive_colligation(rng, SignatureSpace(1, 2), 2, 2, strict=0.05)
        back = adjoint_system(adjoint_system(sys1))
        for blk in "ABCD":
            assert np.allclose(getattr(back, blk), getattr(sys1, blk))


class TestKrylov:
    def test_minimal_blaschke(self):
        rep = krylov_report(blaschke_system(0.4))
        assert rep.controllable and rep.observable and rep.simple
        assert all(v == SubspaceKind.HILBERT for v in rep.complement_kinds.values())

    def test_decoupled_block_breaks_everything(self):
        # second state coordinate neither reachable nor observable
        sys1 = Colligation(SignatureSpace(2, 0), 1, 1,
                           [[0.5, 0.0], [0.0, 0.3]], [[0.8], [0.0]],
                           [[0.8, 0.0]], [[0.1]])
        rep = krylov_report(sys1)
        assert not rep.controllable and not rep.observable and not rep.simple
        assert rep.simple_space.dim == 1
        assert rep.complement_kinds["simple"] == SubspaceKind.HILBERT

    def test_resolvent_samples_match_reachable_span(self):
        # dual route: columns of (I - zA)^(-1) B over samples span the same space
        rng = np.random.default_rng(8)
        sys1 = random_passive_colligation(rng, SignatureSpace(3, 1), 2, 2, strict=0.1)
        n = sys1.state_dim
        cols = []
        for k in range(n + 2):
            z = 0.35 * np.exp(2j * np.pi * k / (n + 2))
            cols.append(np.linalg.solve(np.eye(n) - z * sys1.A, sys1.B))
        resolvent_span = np.hstack(cols)
        assert same_span(resolvent_span, krylov_report(sys1).controllable_space.basis)

    def test_combined_complement_is_intersection_of_complements(self):
        from pontsys.indefinite import intersect_spans, orthocomplement_basis

        # reachable span is e1, observable span is e2, third mode is dead
        sys1 = Colligation(SignatureSpace(3, 0), 1, 1,
                           np.diag([0.3, 0.4, 0.5]),
                           [[0.2], [0.0], [0.0]],
                           [[0.0, 0.2, 0.0]], [[0.0]])
        rep = krylov_report(sys1)
        comp_c = orthocomplement_basis(rep.controllable_space)
        comp_o = orthocomplement_basis(rep.observable_space)
        comp_s = orthocomplement_basis(rep.simple_space)
        both = intersect_spans(comp_c, comp_o)
        assert both.shape[1] == comp_s.shape[1] == 1
        assert same_span(both, comp_s)
        assert same_span(comp_s, np.eye(3)[:, 2:])


def _hidden_block_system(rng, kind, n, kappa, io):
    """A random passive or conservative system with a decoupled three-state
    metric-unitary block: neither reachable nor observable."""
    state = SignatureSpace(n - 3 - kappa, kappa)
    if kind == "passive":
        visible = random_passive_colligation(rng, state, io, io, strict=0.2)
    else:
        visible = random_conservative_colligation(rng, state, io)
    U = random_j_unitary(rng, SignatureSpace(2, 1))
    nv = n - 3
    return Colligation(
        SignatureSpace.from_signs(np.concatenate([visible.state.signs, [1.0, 1.0, -1.0]])),
        io, io,
        np.block([[visible.A, np.zeros((nv, 3))], [np.zeros((3, nv)), U]]),
        np.vstack([visible.B, np.zeros((3, io))]),
        np.hstack([visible.C, np.zeros((io, 3))]), visible.D)


def _recurrence_systems():
    """Passive, conservative and hidden-block systems, some of whose spans
    are not the whole state, with empty and zero-width edge cases."""
    rng = np.random.default_rng([15, 2])
    return {
        "blaschke": blaschke_system(0.4),
        "inverse-blaschke": inverse_blaschke_system(0.6),
        "passive": random_passive_colligation(rng, SignatureSpace(5, 2), 2, 3, strict=0.2),
        "conservative": random_conservative_colligation(rng, SignatureSpace(10, 3), 2),
        "hidden-passive": _hidden_block_system(rng, "passive", 12, 2, 1),
        "hidden-conservative": _hidden_block_system(rng, "conservative", 16, 3, 2),
        # reachable span e1, observable span e2, third mode dead
        "split-spans": Colligation(SignatureSpace(2, 1), 1, 1, np.diag([0.3, 0.4, 0.5]),
                                   [[0.2], [0.0], [0.0]], [[0.0, 0.2, 0.0]], [[0.0]]),
        "empty-state": Colligation(SignatureSpace(0, 0), 2, 1, np.zeros((0, 0)),
                                   np.zeros((0, 2)), np.zeros((1, 0)), [[0.5, 0.25]]),
        "no-input": Colligation(SignatureSpace(2, 1), 0, 2, np.diag([0.3, 0.4, 2.0]),
                                np.zeros((3, 0)), np.ones((2, 3)), np.zeros((2, 0))),
        "no-output": Colligation(SignatureSpace(2, 1), 2, 0, np.diag([0.3, 0.4, 2.0]),
                                 np.ones((3, 2)), np.zeros((0, 3)), np.zeros((0, 2))),
    }


RECURRENCE_SYSTEMS = _recurrence_systems()


# metric_defects before system_kind formed its defects with the unchecked
# core, kept verbatim as the reference the core must reproduce bit for bit
def _old_metric_defects(M, dom, cod):
    dom_s = metric_signs(dom)
    cod_s = metric_signs(cod)
    M = as_matrix(M, rows=cod_s.size, cols=dom_s.size, name="operator")
    primal = np.diag(dom_s) - M.conj().T @ (cod_s[:, None] * M)
    dual = np.diag(cod_s) - M @ (dom_s[:, None] * M.conj().T)
    return primal.astype(np.complex128), dual.astype(np.complex128)


class TestOperatorDefects:
    """system_operator and the unchecked defect core of system_kind against
    np.block and the checked metric_defects as it was, bit for bit."""

    @pytest.mark.parametrize("name", list(RECURRENCE_SYSTEMS))
    def test_system_operator_is_the_block_matrix(self, name):
        plant = RECURRENCE_SYSTEMS[name]
        T, dom, cod = system_operator(plant)
        want = np.block([[plant.A, plant.B], [plant.C, plant.D]])
        assert T.dtype == want.dtype and T.shape == want.shape
        assert T.tobytes() == want.tobytes()
        for core, checked, old in zip(indefinite._metric_defects(T, dom, cod),
                                      metric_defects(want, dom, cod),
                                      _old_metric_defects(want, dom, cod)):
            for got in (core, checked):
                assert got.dtype == old.dtype == np.complex128
                assert got.shape == old.shape and got.tobytes() == old.tobytes()

    def test_metric_defects_keeps_its_checks(self):
        with pytest.raises(InputError):
            metric_defects(np.array([[np.nan]]), 1, 1)
        with pytest.raises(DimensionMismatchError):
            metric_defects(np.eye(2), 3, 2)
        with pytest.raises(InputError):
            metric_defects(np.eye(2), [1.0, 2.0], 2)


# The block Arnoldi loop before it kept a conjugate-transposed basis
# buffer: each step copied the conjugate of the basis so far.  Kept as
# the reference that _krylov_basis must reproduce bit for bit.
def _old_krylov_basis(A, B, tol):
    n = A.shape[0]
    cut = tol.rank_tol * max(1.0, np.linalg.norm(A), np.linalg.norm(B))
    Q = np.empty((n, n), dtype=complex)
    steps = []
    k = 0
    X = B
    while X.shape[1] and k < n:
        Qk = Q[:, :k]
        Qh = Qk.conj().T
        H = Qh @ X
        H += Qh @ (X - Qk @ H)
        U, s, Vh, info = zgesvd(X - Qk @ H, full_matrices=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        r = min(sum(v > cut for v in s.tolist()), n - k)
        if r == 0:
            break
        steps.append((H, Vh[:r], s[:r]))
        Q[:, k:k + r] = U[:, :r]
        X = A @ U[:, :r]
        k += r
    return Q[:, :k], steps


# with one channel the second step multiplies by a single basis row, long
# enough at n = 40 for BLAS to round a strided row differently
BITWISE_SYSTEMS = dict(RECURRENCE_SYSTEMS, **{
    "single-channel-40": random_passive_colligation(
        np.random.default_rng([40, 1]), SignatureSpace(34, 6), 1, 1, strict=0.2)})


class TestKrylovRecurrences:
    @pytest.mark.parametrize("name", list(RECURRENCE_SYSTEMS))
    def test_taylor_stack_matches_markov(self, name):
        system = RECURRENCE_SYSTEMS[name]
        n = system.state_dim
        for order in sorted({0, 1, 2 * n + 1}):
            stack = colligation._taylor_stack(system, order)
            assert stack.shape == (order + 1, system.output_dim, system.input_dim)
            for k in range(order + 1):
                want = markov(system, k)
                scale = max(1.0, np.linalg.norm(system.C) * np.linalg.norm(system.B)
                            * np.linalg.norm(system.A) ** max(k - 1, 0))
                assert np.linalg.norm(stack[k] - want) <= 1e-13 * scale, (order, k)
                if k == 0:
                    assert np.array_equal(stack[k], want)

    @pytest.mark.parametrize("name", list(RECURRENCE_SYSTEMS))
    def test_observable_span_is_the_adjoints_reachable_span(self, name):
        system = RECURRENCE_SYSTEMS[name]
        observable = krylov_report(system).observable_space.basis
        reachable = krylov_report(adjoint_system(system)).controllable_space.basis
        assert observable.shape == reachable.shape
        assert same_span(observable, reachable, angle_tol=1e-10)

    def test_spans_that_are_not_full_are_covered(self):
        dims = {name: (krylov_report(s).controllable_space.dim,
                       krylov_report(s).observable_space.dim, s.state_dim)
                for name, s in RECURRENCE_SYSTEMS.items()}
        assert dims["hidden-passive"] == (9, 9, 12)
        assert dims["hidden-conservative"] == (13, 13, 16)
        assert dims["split-spans"] == (1, 1, 3)
        assert dims["no-input"][0] == 0 and dims["no-output"][1] == 0

    def test_krylov_report_builds_no_adjoint(self, monkeypatch):
        calls = spy(monkeypatch, colligation.adjoint_system)
        for system in RECURRENCE_SYSTEMS.values():
            krylov_report(system)
            classify(system)
        assert calls == []

    @pytest.mark.parametrize("A, B", [
        (np.zeros((0, 0)), np.zeros((0, 2))),
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.diag([0.5, 0.25, 2.0]), np.zeros((3, 0))),
    ], ids=["empty-state", "empty-state-no-input", "no-input"])
    def test_krylov_basis_is_empty(self, A, B):
        Q, steps = colligation._krylov_basis(A, B, DEFAULT_TOL)
        assert Q.shape == (A.shape[0], 0)
        assert steps == []

    @pytest.mark.parametrize("name", list(BITWISE_SYSTEMS))
    def test_krylov_basis_is_bitwise_the_copying_loop(self, name):
        system = BITWISE_SYSTEMS[name]
        for A, B in ((system.A, system.B), (system.A.conj().T, system.C.conj().T)):
            Q, steps = colligation._krylov_basis(A, B, DEFAULT_TOL)
            Q_old, steps_old = _old_krylov_basis(A, B, DEFAULT_TOL)
            assert np.array_equal(Q, Q_old)
            assert len(steps) == len(steps_old)
            for step, step_old in zip(steps, steps_old):
                assert all(np.array_equal(a, b) for a, b in zip(step, step_old))

    @pytest.mark.parametrize("name", list(RECURRENCE_SYSTEMS))
    def test_replay_on_itself_projects_onto_the_reachable_span(self, name):
        system = RECURRENCE_SYSTEMS[name]
        Q, steps = colligation._krylov_basis(system.A, system.B, DEFAULT_TOL)
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)
        # the bound of weak_similarity's intertwining certificate: the
        # replay divides by singular values down to the deflation cut
        Z = colligation._krylov_map((Q, steps), system)
        assert np.linalg.norm(Z - Q @ Q.conj().T) <= 1e-8


def _hautus(A, B):
    """Hautus (PBH) distance of (A, B): the smallest sigma_min([A - lam I, B])
    over the eigenvalues lam of A; zero exactly when (A, B) is uncontrollable."""
    n = A.shape[0]
    return min(np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)[n - 1]
               for lam in np.linalg.eigvals(A))


def _hautus_at(A, B, lam):
    """sigma_min([A - lam I, B]), zero exactly when lam is an eigenvalue of A
    hidden from B."""
    n = A.shape[0]
    return np.linalg.svd(np.hstack([A - lam * np.eye(n), B]), compute_uv=False)[n - 1]


class TestPBHOracle:
    """Krylov flags against the Hautus test on seeded passive (strict=0.2) and
    conservative systems with n up to 40, kappa up to 8 and 1-3 channels."""

    SIZES = [8, 12, 16, 24, 32, 40]

    @staticmethod
    def shape(kind, n, seed):
        rng = np.random.default_rng([n, seed, kind == "passive"])
        kappa = int(rng.integers(0, min(8, n // 3) + 1))
        io = 1 + int(rng.integers(0, 3))
        return rng, kappa, io

    @staticmethod
    def random_system(rng, kind, state, io):
        if kind == "passive":
            return random_passive_colligation(rng, state, io, io, strict=0.2)
        return random_conservative_colligation(rng, state, io)

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", SIZES)
    def test_generic_systems_are_minimal(self, kind, n):
        for seed in range(3):
            rng, kappa, io = self.shape(kind, n, seed)
            sys1 = self.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
            assert _hautus(sys1.A, sys1.B) > 1e-6
            assert _hautus(sys1.A.conj().T, sys1.C.conj().T) > 1e-6
            cls = classify(sys1)
            assert cls.controllable and cls.observable and cls.simple and cls.minimal

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", SIZES)
    def test_hidden_metric_unitary_block(self, kind, n):
        # a decoupled three-state block with signature (2, 1): neither
        # reachable nor observable, whatever the visible part
        rng, kappa, io = self.shape(kind, n, 10)
        sys1 = _hidden_block_system(rng, kind, n, kappa, io)
        assert _hautus(sys1.A, sys1.B) < 1e-12
        rep = krylov_report(sys1)
        assert rep.controllable_space.dim == rep.observable_space.dim == n - 3
        assert rep.simple_space.dim == n - 3
        assert not (rep.controllable or rep.observable or rep.simple)

    @staticmethod
    def projected(sys1, which, eps, rng):
        """sys1 with B projected off the left eigenvector w of the eigenvalue
        picked by which (argmin or argmax of the modulus), then eps w u^H
        added back for a unit u: the Hautus distance is at most eps."""
        lam, W = np.linalg.eig(sys1.A.conj().T)
        w = W[:, which(np.abs(lam))]
        w = w / np.linalg.norm(w)
        u = rng.standard_normal(sys1.input_dim) + 1j * rng.standard_normal(sys1.input_dim)
        u = u / np.linalg.norm(u)
        B0 = sys1.B - np.outer(w, w.conj() @ sys1.B)
        return [Colligation(sys1.state, sys1.input_dim, sys1.output_dim, sys1.A,
                            B0 + e * np.outer(w, u.conj()), sys1.C, sys1.D) for e in eps]

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", SIZES)
    def test_near_uncontrollable_plants(self, kind, n):
        # the hidden mode is the one of smallest modulus; a hidden dominant
        # mode is covered by test_hidden_dominant_mode
        rng, kappa, io = self.shape(kind, n, 20)
        sys1 = self.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
        eps = [0.0, 1e-6, 1e-7, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13]
        plants = dict(zip(eps, self.projected(sys1, np.argmin, eps, rng)))
        assert _hautus(plants[0.0].A, plants[0.0].B) < 1e-12
        rep = krylov_report(plants[0.0])
        assert rep.controllable_space.dim == n - 1 and not rep.controllable
        assert rep.observable
        for e in eps[1:4]:
            assert _hautus(plants[e].A, plants[e].B) <= 1.01 * e
            rep = krylov_report(plants[e])
            assert rep.controllable and rep.observable, e
        # below 1e-10 the deflation does not track the Hautus distance:
        # either verdict, but a verdict
        for e in eps[4:]:
            assert krylov_report(plants[e]).controllable_space.dim in (n - 1, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_hidden_dominant_mode(self, n):
        # hiding the mode of largest modulus of a strictly passive system:
        # rounding along that mode grows through a recurrence on the whole
        # state, which from about n = 12 on usually reads it controllable;
        # its left eigenvector on the Schur form does not
        rng, kappa, io = self.shape("passive", n, 30)
        sys1 = self.random_system(rng, "passive", SignatureSpace(n - kappa, kappa), io)
        exact, = self.projected(sys1, np.argmax, [0.0], rng)
        assert _hautus(exact.A, exact.B) < 1e-12
        assert krylov_report(exact).controllable_space.dim == n - 1

    @pytest.mark.parametrize("dominant", [True, False], ids=["dominant", "interior"])
    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_repeated_eigenvalue_with_two_dimensional_eigenspace(self, n, dominant):
        # lam twice with two eigenvectors and one input: a left eigenvector
        # of lam orthogonal to B always exists, so exactly one mode is hidden
        rng = np.random.default_rng([n, 77])
        lam = 0.95 if dominant else 0.3 + 0.2j
        rest = 0.8 * np.sqrt(rng.random(n - 2)) * np.exp(2j * np.pi * rng.random(n - 2))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = np.eye(n) + 0.3 * G / np.linalg.norm(G, 2)
        A = S @ np.diag(np.concatenate([[lam, lam], rest])) @ np.linalg.inv(S)
        B = S @ (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
        C = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
        plant = Colligation(SignatureSpace(n, 0), 1, 1, A, B, C, [[0.0]])
        assert _hautus_at(A, B, lam) < 1e-12
        assert _hautus_at(A.conj().T, C.conj().T, np.conj(lam)) < 1e-12
        rep = krylov_report(plant)
        assert rep.controllable_space.dim == rep.observable_space.dim == n - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 12])
    def test_jordan_block_driven_at_its_chain_end(self, k):
        # one Jordan block in a random unitary basis: driven at the end of
        # its chain it is controllable, at the start only the eigenvector
        # is reached; rounding splits the computed eigenvalue by about
        # u^(1/k), within the cluster gap up to k = 4, and the growth of
        # the eigenvectors marks the longer chains as nearly defective
        rng = np.random.default_rng([k, 78])
        lam = 0.6 + 0.1j
        U = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        A = U @ (lam * np.eye(k) + np.diag(np.ones(k - 1), 1)) @ U.conj().T
        for B, want in ((U[:, -1:], k), (U[:, :1], 1)):
            plant = Colligation(SignatureSpace(k, 0), 1, 1, A, B, np.ones((1, k)), [[0.0]])
            hidden = _hautus_at(A, B, lam) < 1e-12
            assert hidden == (want < k)
            if not hidden:
                assert _hautus(A, B) > 0.9
            assert krylov_report(plant).controllable_space.dim == want

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", SIZES)
    def test_unchecked_bases_are_orthonormal(self, orthonormal_bases, kind, n):
        # the Krylov report hands its bases to the constructor that skips
        # the basis checks; the autouse fixture bounds ||V^*V - I||_F by
        # 1e-3 on the near-uncontrollable, hidden-block and hidden
        # dominant-mode plants of the tests above
        rng, kappa, io = self.shape(kind, n, 20)
        sys1 = self.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
        plants = self.projected(sys1, np.argmin, [0.0, 1e-6, 1e-8, 1e-10, 1e-13], rng)
        rng, kappa, io = self.shape(kind, n, 10)
        plants.append(_hidden_block_system(rng, kind, n, kappa, io))
        rng, kappa, io = self.shape("passive", n, 30)
        sys1 = self.random_system(rng, "passive", SignatureSpace(n - kappa, kappa), io)
        plants += self.projected(sys1, np.argmax, [0.0], rng)
        for plant in plants:
            del orthonormal_bases[:]
            krylov_report(plant)
            # three spans and the complements of those that are not full
            assert len(orthonormal_bases) >= 3
            assert all(rows == n and shape[0] == n and error <= 1e-3
                       for rows, shape, error in orthonormal_bases)


class TestSchurSpans:
    """The spans of _schur_spans against those of the block Arnoldi
    recurrence on the whole state, on the generic, hidden-block and
    near-uncontrollable (eps = 1e-6 to 1e-8) plants of TestPBHOracle."""

    @staticmethod
    def plants(kind, n):
        rng, kappa, io = TestPBHOracle.shape(kind, n, 0)
        state = SignatureSpace(n - kappa, kappa)
        plants = [TestPBHOracle.random_system(rng, kind, state, io)]
        rng, kappa, io = TestPBHOracle.shape(kind, n, 10)
        plants.append(_hidden_block_system(rng, kind, n, kappa, io))
        rng, kappa, io = TestPBHOracle.shape(kind, n, 20)
        sys1 = TestPBHOracle.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
        return plants + TestPBHOracle.projected(sys1, np.argmin, [1e-6, 1e-7, 1e-8], rng)

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", TestPBHOracle.SIZES)
    def test_spans_agree_with_the_recurrence(self, kind, n):
        for plant in self.plants(kind, n):
            arnoldi = {False: colligation._krylov_basis(plant.A, plant.B, DEFAULT_TOL)[0],
                       True: colligation._observable_span(plant, DEFAULT_TOL)}
            for observe, want in arnoldi.items():
                (span, hidden), = colligation._schur_spans(plant, (observe,), DEFAULT_TOL)
                assert span.shape == want.shape
                assert hidden.shape == (n, n - want.shape[1])
                assert same_span(span, want, angle_tol=1e-8)
                # the hidden basis completes the span to a unitary
                both = np.hstack([span, hidden])
                assert np.linalg.norm(both.conj().T @ both - np.eye(n)) <= 1e-12

    def test_candidates_that_meet_the_cut_alone_but_not_together(self, monkeypatch):
        # isolated eigenvalues 0.5 and 0.6 with nearly parallel left
        # eigenvectors (1, -10) and (0, 1) in Schur coordinates, and B on
        # the right eigenvector (10, 1) of 0.6 at 0.9 times the cut: each
        # left eigenvector meets B at or below the cut, but their
        # orthonormal block meets it at about 9 times the cut.  The mode
        # 0.5 is exactly hidden and is kept; 0.6 would break the cut.  A
        # recurrence on the block, started from a vector of norm 9 times
        # the cut, reads both reached.
        n = 6
        rng = np.random.default_rng(3)
        T = np.diag([0.5, 0.6, -0.5, 0.3j, -0.2 - 0.4j, 0.1]).astype(complex)
        T[0, 1] = 1.0
        U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        A = U @ T @ U.conj().T
        b = np.ones((n, 1), dtype=complex)
        b[:2] = 0.0
        cut = DEFAULT_TOL.rank_tol * max(1.0, np.linalg.norm(A), np.linalg.norm(b))
        b[:2, 0] = 0.9 * cut * np.array([10.0, 1.0])
        plant = Colligation(SignatureSpace(n, 0), 1, 1, A, U @ b, np.ones((1, n)), [[0.0]])
        assert _hautus_at(A, plant.B, 0.5) < 1e-14
        arnoldi = spy(monkeypatch, colligation._krylov_basis)
        (span, hidden), = colligation._schur_spans(plant, (False,), DEFAULT_TOL)
        assert arnoldi == []
        assert (span.shape[1], hidden.shape[1]) == (n - 1, 1)
        # the hidden direction is the left eigenvector of 0.5
        y = U @ np.array([1.0, -10.0, 0, 0, 0, 0]) / np.sqrt(101.0)
        assert abs(abs(np.vdot(hidden[:, 0], y)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("name", ["empty-state", "no-input", "no-output"])
    def test_empty_spans(self, name):
        plant = RECURRENCE_SYSTEMS[name]
        n = plant.state_dim
        for observe, width in ((False, plant.input_dim), (True, plant.output_dim)):
            (span, hidden), = colligation._schur_spans(plant, (observe,), DEFAULT_TOL)
            assert span.shape == (n, n if width else 0)
            assert hidden.shape == (n, 0 if width else n)
        rep = krylov_report(plant)
        assert rep.controllable_space.dim == (n if plant.input_dim else 0)
        assert rep.observable_space.dim == (n if plant.output_dim else 0)

    def test_weak_similarity_runs_two_recurrences(self, monkeypatch):
        rng = np.random.default_rng([40, 8])
        sys1 = random_conservative_colligation(rng, SignatureSpace(32, 8), 1)
        Z = np.eye(40) + 0.01 * rng.standard_normal((40, 40))
        sys2 = state_change(sys1, Z, sys1.state)
        arnoldi = spy(monkeypatch, colligation._krylov_basis)
        forms = spy_attr(monkeypatch, scipy.linalg, "schur")
        weak_similarity(sys1, sys2)
        assert len(arnoldi) == 2 and forms == []


# The Hautus decision of _schur_spans before its eigenvectors came from one
# zgeev call: a back-substitution over all shifts, one numpy step per
# diagonal entry of the Schur form.  Kept verbatim, split where its masks
# are read, as the oracle that the LAPACK route must reproduce.
def _backsub_masks(system, observe, tol):
    """(clustered, candidate, ratio, cut) of one side, by back-substitution."""
    form = system._spectrum
    drive = system.C.conj().T if observe else system.B
    n = drive.shape[0]
    Z = form.Z
    norm_a = float(np.linalg.norm(system.A))
    cut = tol.rank_tol * max(1.0, norm_a, float(np.linalg.norm(drive)))
    lam = form.eigenvalues
    diff = lam[:, None] - lam[None, :]
    g = tol.rank_tol ** (1.0 / 3.0)
    close = np.abs(diff) <= g * max(1.0, norm_a)
    # inv[k, j] = 1 / (lam_k - lam_j) away from lam_k; a clustered row is
    # a candidate whatever its vector, so its close terms are dropped
    inv = np.divide(1.0, diff, out=np.zeros_like(diff), where=~close)
    T = form.T
    V = np.zeros((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if observe:
            # column k: T x = lam_k x with x[k] = 1 and zero below k
            for j in range(n - 1, -1, -1):
                V[j] = (T[j, j + 1:] @ V[j + 1:]) * inv[:, j]
                V[j, j] = 1.0
            driven = np.linalg.norm(system.C @ Z @ V, axis=0)
            size = np.linalg.norm(V, axis=0)
        else:
            # row k: w T = lam_k w with w[k] = 1 and zero before k
            for j in range(n):
                V[:, j] = (V[:, :j] @ T[:j, j]) * inv[:, j]
                V[j, j] = 1.0
            driven = np.linalg.norm(V @ (Z.conj().T @ drive), axis=1)
            size = np.linalg.norm(V, axis=1)
        ratio = driven / size
        # a vector that grew past 1/g, or overflowed, belongs to a nearly
        # defective eigenvalue and is decided with the clusters
        clustered = (np.count_nonzero(close, axis=1) > 1) | ~(size <= 1.0 / g)
        candidate = clustered | ~(ratio > cut)
    return clustered, candidate, ratio, cut


def _backsub_spans(system, observe, tol):
    """(span, hidden) of one side, split on the masks of _backsub_masks."""
    form = system._spectrum
    drive = system.C.conj().T if observe else system.B
    n = drive.shape[0]
    Z = form.Z
    clustered, candidate, ratio, cut = _backsub_masks(system, observe, tol)

    def moved(select):
        """(rest, block): the Schur vectors with the selected eigenvalues
        moved to the end of the form that holds the hidden space."""
        k = int(np.count_nonzero(select))
        if observe:
            Zr, _ = form.reordered(select)
            return Zr[:, k:], Zr[:, :k]
        Zr, _ = form.reordered(~select)
        return Zr[:, :n - k], Zr[:, n - k:]

    rest, block = moved(candidate)
    if clustered.any():
        Tb = block.conj().T @ system.A @ block
        Q = colligation._krylov_basis(Tb.conj().T if observe else Tb,
                                      block.conj().T @ drive, tol, cut=cut)[0]
        return np.hstack([rest, block @ Q]), block @ nullspace(Q.conj().T, tol)
    if colligation._norm2(block.conj().T @ drive) > cut:
        rest, block, hidden = Z, Z[:, :0], np.zeros(n, dtype=bool)
        for k in np.flatnonzero(candidate)[np.argsort(ratio[candidate], kind="stable")]:
            trial = hidden.copy()
            trial[k] = True
            r, b = moved(trial)
            if colligation._norm2(b.conj().T @ drive) <= cut:
                rest, block, hidden = r, b, trial
    return rest, block


def _sweep_plants(n):
    """Per seeded system, the system and its plants: B of 8 passive
    (strict = 0.2) and 8 conservative systems, kappa <= 8 and 1-3 channels,
    projected off each left eigenvector in turn, and then 1e-8 times a
    unit vector added back along it."""
    for kind in ("passive", "conservative"):
        for seed in range(100, 108):
            rng, kappa, io = TestPBHOracle.shape(kind, n, seed)
            sys1 = TestPBHOracle.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
            W = np.linalg.eig(sys1.A.conj().T)[1]
            W /= np.linalg.norm(W, axis=0)
            pairs = []
            for w in W.T:
                u = rng.standard_normal(io) + 1j * rng.standard_normal(io)
                B0 = sys1.B - np.outer(w, w.conj() @ sys1.B)
                pair = [Colligation(sys1.state, io, io, sys1.A, B, sys1.C, sys1.D)
                        for B in (B0, B0 + 1e-8 * np.outer(w, u.conj() / np.linalg.norm(u)))]
                # the plants share A, so each would take bitwise this Schur form
                for plant in pair:
                    plant.__dict__["_spectrum"] = sys1._spectrum
                pairs.append(pair)
            yield sys1, pairs


class TestBacksubOracle:
    """_schur_spans against the back-substitution it replaced: equal
    candidate and cluster masks, and bitwise equal span and hidden bases,
    which are blocks of Schur vectors."""

    @pytest.fixture
    def splits(self, monkeypatch):
        return spy(monkeypatch, colligation._hidden_split)

    @staticmethod
    def assert_matches(splits, plant, sides=(False, True)):
        del splits[:]
        got = colligation._schur_spans(plant, sides, DEFAULT_TOL)
        masks = {args[1]: args[2:4] for args in splits}
        assert len(masks) == len(splits)
        for observe, (span, hidden) in zip(sides, got):
            clustered, candidate = _backsub_masks(plant, observe, DEFAULT_TOL)[:2]
            if observe in masks:
                assert np.array_equal(masks[observe][0], clustered)
                assert np.array_equal(masks[observe][1], candidate)
            else:
                assert not candidate.any()
            for mine, want in zip((span, hidden),
                                  _backsub_spans(plant, observe, DEFAULT_TOL)):
                assert mine.shape == want.shape and mine.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", TestPBHOracle.SIZES)
    def test_pbh_plants(self, splits, kind, n):
        plants = TestSchurSpans.plants(kind, n)
        rng, kappa, io = TestPBHOracle.shape(kind, n, 20)
        sys1 = TestPBHOracle.random_system(rng, kind, SignatureSpace(n - kappa, kappa), io)
        plants += TestPBHOracle.projected(
            sys1, np.argmin, [0.0, 1e-10, 1e-11, 1e-12, 1e-13], rng)
        rng, kappa, io = TestPBHOracle.shape("passive", n, 30)
        sys1 = TestPBHOracle.random_system(rng, "passive", SignatureSpace(n - kappa, kappa), io)
        plants += TestPBHOracle.projected(sys1, np.argmax, [0.0], rng)
        for plant in plants:
            self.assert_matches(splits, plant)

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 12])
    def test_jordan_chains(self, splits, k):
        rng = np.random.default_rng([k, 78])
        lam = 0.6 + 0.1j
        U = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        A = U @ (lam * np.eye(k) + np.diag(np.ones(k - 1), 1)) @ U.conj().T
        for B in (U[:, -1:], U[:, :1]):
            for C in (np.ones((1, k)), U[:, :1].conj().T, U[:, -1:].conj().T):
                self.assert_matches(splits, Colligation(
                    SignatureSpace(k, 0), 1, 1, A, B, C, [[0.0]]))

    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_repeated_eigenvalues(self, splits, n):
        for dominant in (True, False):
            rng = np.random.default_rng([n, 77])
            lam = 0.95 if dominant else 0.3 + 0.2j
            rest = 0.8 * np.sqrt(rng.random(n - 2)) * np.exp(2j * np.pi * rng.random(n - 2))
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S = np.eye(n) + 0.3 * G / np.linalg.norm(G, 2)
            A = S @ np.diag(np.concatenate([[lam, lam], rest])) @ np.linalg.inv(S)
            B = S @ (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
            C = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
            self.assert_matches(splits, Colligation(
                SignatureSpace(n, 0), 1, 1, A, B, C, [[0.0]]))

    @pytest.mark.parametrize("n", [8, 16, 24, 40])
    def test_projected_sweep(self, splits, n):
        # 16 systems per size, 1,408 plants over the four sizes: each reads
        # exactly n - 1 reachable dimensions, and n with 1e-8 added back
        for sys1, pairs in _sweep_plants(n):
            self.assert_matches(splits, sys1, (True,))
            for exact, near in pairs:
                (span, _), = self.assert_matches(splits, exact, (False,))
                assert span.shape[1] == n - 1
                (span, _), = self.assert_matches(splits, near, (False,))
                assert span.shape[1] == n

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_scaled_plants(self, splits, monkeypatch, scale, kind, n):
        # zgeev would scale these forms itself; the eigenvector call gets T
        # scaled into range by a power of two, and the decisions are the
        # back-substitution's on the same plant.  At 1e150 they are also
        # those of the unscaled plant; at 1e-150 the floor max(1, .) of the
        # gap makes every eigenvalue clustered, as it did before
        calls = spy(monkeypatch, colligation.zgeev)
        for plant in TestSchurSpans.plants(kind, n):
            scaled = Colligation(plant.state, plant.input_dim, plant.output_dim,
                                 scale * plant.A, scale * plant.B, scale * plant.C, plant.D)
            del calls[:]
            got = self.assert_matches(splits, scaled)
            top = np.max(np.abs(calls[0][0]))
            assert 2.0 ** -400 <= top <= 2.0 ** 400
            if scale > 1:
                want = colligation._schur_spans(plant, (False, True), DEFAULT_TOL)
                assert [s.shape for s, _ in got] == [s.shape for s, _ in want]


class TestEigenvectorCall:
    """The one zgeev call of _schur_spans per system and request."""

    @staticmethod
    def plant():
        rng = np.random.default_rng([12, 2])
        return random_conservative_colligation(rng, SignatureSpace(10, 2), 2)

    def test_krylov_report_asks_both_sides_in_one_call(self, monkeypatch):
        plant = self.plant()
        calls = spy(monkeypatch, colligation.zgeev)
        krylov_report(plant)
        assert len(calls) == 1
        assert calls[0][0] is plant._spectrum.T and calls[0][1:] == (1, 1)

    def test_single_side_callers_ask_one_side(self, monkeypatch):
        plant = self.plant()
        calls = spy(monkeypatch, colligation.zgeev)
        schur._observable_dimension(plant, DEFAULT_TOL)
        obstruction_observable(blaschke_system(0.5), blaschke_system(-0.3))
        obstruction_controllable(blaschke_system(0.5), blaschke_system(-0.3))
        assert [args[1:] for args in calls] == [(0, 1), (0, 1), (1, 0)]

    def test_out_of_order_eigenvalues_are_refused(self, monkeypatch):
        real = colligation.zgeev

        def reversed_order(*args):
            w, left, right, info = real(*args)
            return w[::-1], left[:, ::-1], right[:, ::-1], info

        monkeypatch.setattr(colligation, "zgeev", reversed_order)
        for sides in ((False, True), (False,), (True,)):
            with pytest.raises(InternalConsistencyError, match="eigenvalue order"):
                colligation._schur_spans(self.plant(), sides, DEFAULT_TOL)

    @pytest.mark.parametrize("name", ["empty-state", "no-input", "no-output", "conservative"])
    def test_no_candidate_takes_no_reordering(self, monkeypatch, name):
        # the empty state and a side with no candidate return the Schur
        # vectors as they are; a side without columns takes no eigenvectors
        plant = RECURRENCE_SYSTEMS[name]
        plant._spectrum
        calls = spy(monkeypatch, colligation.zgeev)
        reorders = spy_attr(monkeypatch, type(plant._spectrum), "reordered")
        norms = spy(monkeypatch, colligation._norm2)
        rep = krylov_report(plant)
        assert reorders == [] and norms == []
        driven = (plant.input_dim > 0, plant.output_dim > 0)
        assert [args[1:] for args in calls] == ([driven] if plant.state_dim and any(driven)
                                                else [])
        assert rep.controllable == (plant.input_dim > 0 or not plant.state_dim)


class TestSimpKar:
    def test_minimal_negative_state_preserves_index(self):
        rep = simp_kar_check(inverse_blaschke_system(0.5))
        assert rep.index_preserving
        assert rep.kappa == 1

    def test_hidden_negative_block_fails(self):
        base = inverse_blaschke_system(0.5)
        # append a decoupled negative state square that the transfer cannot see
        sys1 = Colligation(SignatureSpace(0, 2), 1, 1,
                           [[base.A[0, 0], 0.0], [0.0, 1.5]],
                           [[base.B[0, 0]], [0.0]],
                           [[base.C[0, 0], 0.0]], base.D)
        rep = simp_kar_check(sys1)
        assert not rep.index_preserving
        assert rep.complement_kinds["simple"] == SubspaceKind.ANTIHILBERT


class TestRestriction:
    def test_restrict_to_leading_summand(self):
        rng = np.random.default_rng(5)
        sys1 = random_conservative_colligation(rng, SignatureSpace(2, 1), 2)
        sys2 = random_conservative_colligation(rng, SignatureSpace(1, 1), 2)
        big = direct_sum(sys1, sys2)
        basis = np.zeros((big.state_dim, 3), dtype=complex)
        basis[:3, :3] = np.eye(3)
        sub = IndefiniteSubspace(big.state, basis)
        small = restriction(big, sub)
        assert small.state.signs.tolist() == sys1.state.signs.tolist()
        # compression to an invariant regular summand is a similarity, so the
        # spectrum survives and the transfer splits into static second block
        assert np.allclose(np.sort_complex(np.linalg.eigvals(small.A)),
                           np.sort_complex(np.linalg.eigvals(sys1.A)))
        for z in (0.2, -0.3j):
            val = transfer_eval(small, z)
            assert np.linalg.norm(val[:2, :2] - transfer_eval(sys1, z), 2) < 1e-10
            assert np.linalg.norm(val[2:, 2:] - sys2.D, 2) < 1e-10
            assert np.linalg.norm(val[:2, 2:], 2) + np.linalg.norm(val[2:, :2], 2) < 1e-10

    def test_state_change_preserves_transfer(self):
        rng = np.random.default_rng(6)
        sp = SignatureSpace(2, 1)
        sys1 = random_conservative_colligation(rng, sp, 2)
        Z = random_j_unitary(rng, sp)
        sys2 = state_change(sys1, Z, sp)
        for z in (0.2, -0.4j):
            assert np.linalg.norm(
                transfer_eval(sys1, z) - transfer_eval(sys2, z), 2) < 1e-10

    def test_to_canonical(self):
        sp = SignatureSpace(1, 1, pattern=(-1, 1))
        sys1 = Colligation(sp, 1, 1, [[1.5, 0.2], [0.1, 0.4]],
                           [[1.0], [0.5]], [[0.3, 0.7]], [[0.2]])
        canon = to_canonical(sys1)
        assert canon.state.is_canonical
        assert canon.state.pos == 1 and canon.state.neg == 1
        for z in (0.1, 0.2j):
            assert np.linalg.norm(
                transfer_eval(sys1, z) - transfer_eval(canon, z), 2) < 1e-12


class TestDilation:
    @staticmethod
    def build_dilation(small, extra, radius=0.3, rng=None):
        """Prepend an invariant, unobserved Hilbert block of size extra whose
        main operator is radius times a unitary."""
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
        return TestDilation.build_dilation(small, extra, radius, rng), small

    # the seeded cases hide a block of radius 0.95 or 2.0 beside 14-24
    # states, where the whole-state recurrence misses hidden modes
    @pytest.mark.parametrize("seed", [None, 2, 5, 7, 17, 29, 31],
                             ids=lambda seed: f"seed{seed}" if seed is not None else "blaschke")
    def test_search_finds_decomposition(self, seed):
        if seed is None:
            small = blaschke_system(0.5)
            big = self.build_dilation(small, 2)
        else:
            big, small = self.seeded_dilation(seed)
        report = is_dilation_of(big, small)
        assert report
        assert report.defects["transfer mismatch"] < 1e-10

    def test_explicit_decomposition(self):
        small = inverse_blaschke_system(0.4)
        big = self.build_dilation(small, 1)
        D_part = np.array([[1.0], [0.0]], dtype=complex)
        X_part = np.array([[0.0], [1.0]], dtype=complex)
        Dstar_part = np.zeros((2, 0), dtype=complex)
        report = is_dilation_of(big, small,
                                decomposition=(D_part, X_part, Dstar_part))
        assert report

    def test_wrong_small_system_rejected(self):
        small = blaschke_system(0.5)
        big = self.build_dilation(small, 2)
        other = blaschke_system(0.3)
        report = is_dilation_of(big, other)
        assert not report
        assert "transfer" in report.reason or "dimension" in report.reason

    def test_disc_samples_size_the_transfer_plan(self, monkeypatch):
        seen = []
        real = sampling.disc_grid

        def spy(per_ring, *args, **kwargs):
            seen.append(per_ring)
            return real(per_ring, *args, **kwargs)

        monkeypatch.setattr(sampling, "disc_grid", spy)
        small = blaschke_system(0.5)
        big = self.build_dilation(small, 2)
        assert is_dilation_of(big, small, Tolerances(disc_samples=30))
        assert is_dilation_of(big, small)
        assert seen == [10, 21]


def _weak_failures():
    """(s1, s2, message) for inputs weak_similarity refuses before any map
    is certified; each message is the one the two-report order gave."""
    minimal = blaschke_system(0.5)
    two = cascade(minimal, blaschke_system(0.3))
    wide = Colligation(SignatureSpace(2, 0), 2, 1, two.A,
                       np.hstack([two.B, np.zeros((2, 1))]), two.C,
                       np.hstack([two.D, [[0.0]]]))
    # second state unreachable and unobservable
    dead = Colligation(SignatureSpace(2, 0), 1, 1,
                       [[0.5, 0.0], [0.0, 0.3]], [[0.8], [0.0]],
                       [[0.8, 0.0]], [[0.1]])
    dead_wide = Colligation(SignatureSpace(2, 0), 2, 1, dead.A,
                            np.hstack([dead.B, np.zeros((2, 1))]), dead.C,
                            np.hstack([dead.D, [[0.0]]]))
    nonminimal = "weak similarity requires minimal systems"
    return {
        "non-minimal s2, equal dimensions, other Taylor data": (two, dead, nonminimal),
        "unequal dimensions": (
            two, minimal, "Taylor coefficients differ at order 0; no weak similarity"),
        "unequal dimensions, non-minimal s2": (minimal, dead, nonminimal),
        "unequal dimensions, non-minimal s2, other I/O": (minimal, dead_wide, nonminimal),
        "mismatched I/O": (two, wide, "weak similarity requires matching input/output"),
        "mismatched I/O, non-minimal s2": (two, dead_wide, nonminimal),
    }


WEAK_FAILURES = _weak_failures()


class TestSimilarity:
    def test_unitary_similarity_round_trip(self):
        rng = np.random.default_rng(7)
        sp = SignatureSpace(2, 1)
        sys1 = random_conservative_colligation(rng, sp, 2)
        Z = random_j_unitary(rng, sp)
        sys2 = state_change(sys1, Z, sp)
        sim = unitary_similarity(sys1, sys2)
        assert sim is not None
        assert metric_classify(sim.Z, sp, sp) == MetricClass.UNITARY
        assert max(sim.residuals.values()) < 1e-9

    @pytest.mark.parametrize("entropy, n, kappa, io", [
        ([8, 1, 1], 8, 1, 1), ([8, 2, 3], 8, 2, 3), ([24, 4, 2], 24, 4, 2),
        ([24, 8, 1], 24, 8, 1), ([40, 6, 2], 40, 6, 2),
        # refused as non-minimal by the power-basis Krylov spans
        ([3, 17, 20], 40, 8, 3)])
    def test_weak_similarity_recovers_planted_map(self, entropy, n, kappa, io):
        rng = np.random.default_rng(entropy)
        sys1 = random_conservative_colligation(rng, SignatureSpace(n - kappa, kappa), io)
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z = np.eye(n) + 0.05 * R / max(1.0, np.linalg.norm(R, 2))
        sim = weak_similarity(sys1, state_change(sys1, Z, sys1.state))
        assert np.linalg.norm(sim.Z - Z, 2) <= 1e-6 * np.linalg.norm(Z, 2)

    def test_weak_similarity_runs_the_first_recurrence_once(self, monkeypatch):
        rng = np.random.default_rng([24, 4, 2])
        sys1 = random_conservative_colligation(rng, SignatureSpace(20, 4), 2)
        Z = np.eye(24) + 0.01 * rng.standard_normal((24, 24))
        sys2 = state_change(sys1, Z, sys1.state)
        calls = spy(monkeypatch, colligation._krylov_basis)
        weak_similarity(sys1, sys2)
        assert sum(args[0] is sys1.A and args[1] is sys1.B for args in calls) == 1

    def test_weak_similarity_takes_one_svd_of_z(self, monkeypatch):
        # the scale of the intertwining bound is the largest of the
        # singular values that the invertibility certificate reads
        rng = np.random.default_rng([24, 4, 2])
        sys1 = random_conservative_colligation(rng, SignatureSpace(20, 4), 2)
        sys2 = state_change(sys1, np.eye(24) + 0.01 * rng.standard_normal((24, 24)),
                            sys1.state)
        svd = spy_attr(monkeypatch, np.linalg, "svd")
        norms = spy_attr(monkeypatch, np.linalg, "norm")
        sim = weak_similarity(sys1, sys2)
        assert sum(args[0] is sim.Z for args in svd) == 1
        assert not any(args[0] is sim.Z for args in norms)
        sv = np.linalg.svd(sim.Z, compute_uv=False)
        assert sim.residuals["inverse_condition"] == sv[-1] / sv[0]

    def test_weak_similarity_builds_one_krylov_report(self, monkeypatch):
        # at equal state dimensions the certified invertible map makes the
        # second system similar to the minimal first one
        rng = np.random.default_rng([24, 4, 2])
        sys1 = random_conservative_colligation(rng, SignatureSpace(20, 4), 2)
        sys2 = state_change(sys1, np.eye(24) + 0.01 * rng.standard_normal((24, 24)),
                            sys1.state)
        calls = spy(monkeypatch, colligation._minimal_recurrence)
        weak_similarity(sys1, sys2)
        assert [args[0] for args in calls] == [sys1]

    @pytest.mark.parametrize("case", list(WEAK_FAILURES))
    def test_weak_similarity_failures_keep_their_reason(self, case):
        s1, s2, message = WEAK_FAILURES[case]
        with pytest.raises(PreconditionError) as info:
            weak_similarity(s1, s2)
        assert type(info.value) is PreconditionError
        assert str(info.value) == message

    def test_unitary_similarity_rejects_balanced_form(self):
        sys1 = blaschke_system(0.5)
        bare = realize_from_taylor([markov(sys1, k) for k in range(6)])
        sys2 = Colligation(SignatureSpace(1, 0), 1, 1, bare.A, bare.B, bare.C, bare.D)
        # same transfer function, but the balanced form is not conservative
        assert unitary_similarity(sys1, sys2) is None
        weak = weak_similarity(sys1, sys2)
        assert weak.residuals["A"] < 1e-10
        assert abs(np.linalg.det(weak.Z)) > 1e-6

    def test_weak_similarity_needs_minimal(self):
        sys1 = Colligation(SignatureSpace(2, 0), 1, 1,
                           [[0.5, 0.0], [0.0, 0.3]], [[0.8], [0.0]],
                           [[0.8, 0.0]], [[0.1]])
        with pytest.raises(PreconditionError):
            weak_similarity(sys1, blaschke_system(0.2))

    def test_weak_similarity_needs_matching_taylor(self):
        with pytest.raises(PreconditionError):
            weak_similarity(blaschke_system(0.5), blaschke_system(0.3))

    def test_weak_similarity_rejects_mismatch_at_last_order(self):
        # cyclic shift realizations read at the last state: C A^(k-1) B is 1
        # at k = n, the corner entry at k = 2n = N, and 0 at every other
        # order up to N, so two corners differ first at the last order
        # compared
        assert weak_similarity(self.cyclic(0.5, 4), self.cyclic(0.5, 4)).residuals["A"] < 1e-12
        with pytest.raises(PreconditionError, match=(
                r"^Taylor coefficients differ at order 8; no weak similarity$")):
            weak_similarity(self.cyclic(0.5, 4), self.cyclic(0.3, 4))

    @staticmethod
    def cyclic(corner, row, gain=1.0, n=4):
        """Cyclic shift realization read at state row: C A^(k-1) B is gain
        at k = row, gain times the corner at k = row + n, and 0 at every
        other order from 1 to 2n."""
        A = np.diag(np.ones(n - 1), -1).astype(complex)
        A[0, n - 1] = corner
        return Colligation(SignatureSpace(n, 0), 1, 1, A, np.eye(n)[:, :1],
                           gain * np.eye(n)[row - 1:row, :], [[0.2]])

    @pytest.mark.parametrize("order", range(9))
    def test_weak_similarity_names_the_first_differing_order(self, order):
        # a gain differs first at order row, a corner at order row + 4, and
        # the feedthrough at order 0
        if order == 0:
            s2 = self.cyclic(0.5, 1)
            s2 = Colligation(s2.state, 1, 1, s2.A, s2.B, s2.C, [[0.3]])
            pair = (self.cyclic(0.5, 1), s2)
        elif order <= 4:
            pair = (self.cyclic(0.5, order), self.cyclic(0.5, order, gain=2.0))
        else:
            pair = (self.cyclic(0.5, order - 4), self.cyclic(0.3, order - 4))
        assert weak_similarity(pair[0], pair[0]).residuals["A"] < 1e-12
        with pytest.raises(PreconditionError, match=(
                rf"^Taylor coefficients differ at order {order}; no weak similarity$")):
            weak_similarity(*pair)

    @pytest.mark.parametrize("p, m", [(0, 2), (2, 0), (0, 0)])
    def test_weak_similarity_without_inputs_or_outputs(self, p, m):
        # with no state the window holds only the empty or zero-width D
        s1 = Colligation(SignatureSpace(0, 0), m, p, np.zeros((0, 0)), np.zeros((0, m)),
                         np.zeros((p, 0)), np.zeros((p, m)))
        sim = weak_similarity(s1, s1)
        assert sim.Z.shape == (0, 0) and sim.residuals["inverse_condition"] == 1.0

    @pytest.mark.parametrize("shape", [(3, 1, 4), (5, 4, 2), (2, 3, 3), (4, 0, 3),
                                       (4, 3, 0)])
    def test_window_norms_are_the_spectral_norms(self, shape):
        rng = np.random.default_rng(list(shape))
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack[:1] *= 1e-9
        want = (np.linalg.norm(stack, 2, axis=(1, 2)) if stack.size
                else np.zeros(shape[0]))
        got = colligation._spectral_norms(stack)
        assert got.shape == (shape[0],)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(want, 1e-300))

    def test_window_norms_take_one_eigen_solve(self, monkeypatch):
        rng = np.random.default_rng([24, 4, 2])
        sys1 = random_conservative_colligation(rng, SignatureSpace(20, 4), 2)
        sys2 = state_change(sys1, np.eye(24) + 0.01 * rng.standard_normal((24, 24)),
                            sys1.state)
        eigvalsh = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        weak_similarity(sys1, sys2)
        assert [args[0].shape for args in eigvalsh] == [(2 * 49, 2, 2)]


class TestRealize:
    def test_scalar_blaschke_recovered(self):
        sys1 = blaschke_system(0.5)
        coeffs = [markov(sys1, k) for k in range(6)]
        bare = realize_from_taylor(coeffs)
        assert bare.state_dim == 1
        sys2 = Colligation(SignatureSpace(1, 0), 1, 1, bare.A, bare.B, bare.C, bare.D)
        for k in range(6):
            assert np.linalg.norm(markov(sys2, k) - coeffs[k], 2) < 1e-10

    def test_mimo_direct_sum_recovered(self):
        big = direct_sum(blaschke_system(0.5), blaschke_system(-0.3))
        coeffs = [markov(big, k) for k in range(8)]
        bare = realize_from_taylor(coeffs)
        assert bare.state_dim == 2
        sys2 = Colligation(SignatureSpace(2, 0), 2, 2, bare.A, bare.B, bare.C, bare.D)
        for z in (0.2, -0.1 + 0.3j):
            assert np.linalg.norm(
                transfer_eval(sys2, z) - transfer_eval(big, z), 2) < 1e-9

    def test_unstable_state_data(self):
        # Taylor data of a negative-index system realizes fine; metric comes later
        sys1 = inverse_blaschke_system(0.5)
        coeffs = [markov(sys1, k) for k in range(6)]
        bare = realize_from_taylor(coeffs)
        assert bare.state_dim == 1
        assert abs(np.linalg.eigvals(bare.A)[0] - 2.0) < 1e-8

    def test_order_bound_too_small(self):
        # scalar order-two data cannot hide inside one-block windows
        sys1 = Colligation(SignatureSpace(2, 0), 1, 1,
                           [[0.5, 0.0], [0.0, -0.3]], [[1.0], [1.0]],
                           [[0.25, 0.25]], [[0.0]])
        coeffs = [markov(sys1, k) for k in range(4)]
        with pytest.raises(OrderAmbiguityError):
            realize_from_taylor(coeffs, order_bound=1)

    def test_zero_function(self):
        coeffs = [np.zeros((1, 1)) for _ in range(6)]
        bare = realize_from_taylor(coeffs)
        assert bare.state_dim == 0

    def test_not_enough_coefficients(self):
        with pytest.raises(PreconditionError):
            realize_from_taylor([np.eye(1)] * 3, order_bound=1)
