import numpy as np
import pytest
from scipy.linalg import orthogonal_procrustes

from pontsys import indefinite, julia
from pontsys.colligation import (
    Colligation,
    SystemKind,
    system_kind,
    system_operator,
    transfer_eval,
)
from pontsys.exceptions import IndefiniteDefectError, PreconditionError
from pontsys.indefinite import (
    DEFAULT_TOL,
    MetricClass,
    SignatureSpace,
    metric_classify,
)
from pontsys.julia import JuliaParts, julia_embedding, julia_operator
from pontsys.sampling import (
    disc_grid,
    random_conservative_colligation,
    random_j_contraction,
    random_passive_colligation,
)

from _builders import direct_sum, spectral_norms, spy, spy_attr


class TestJuliaOperator:
    def test_scalar_half(self):
        # the completion of the scalar 1/2 is the reflection with defect 3/4
        ju = julia_operator(np.array([[0.5]]), 1, 1)
        root = np.sqrt(0.75)
        expect = np.array([[0.5, root], [root, -0.5]])
        assert np.allclose(ju.operator, expect)
        assert ju.defect_rank == 1 and ju.dual_defect_rank == 1

    def test_strict_scalar_rotation_like(self):
        ju = julia_operator(np.array([[0.8j]]), 1, 1)
        U = ju.operator
        assert np.linalg.norm(U.conj().T @ U - np.eye(2), 2) < 1e-12

    def test_unitary_input_needs_no_defects(self):
        ju = julia_operator(np.eye(3), 3, 3)
        assert ju.defect_rank == 0 and ju.dual_defect_rank == 0
        assert ju.operator.shape == (3, 3)

    def test_isometry_gets_one_sided_defect(self):
        V = np.array([[1.0], [0.0]])
        ju = julia_operator(V, 1, 2)
        assert ju.defect_rank == 0
        assert ju.dual_defect_rank == 1
        assert ju.operator.shape == (2, 2)

    def test_random_j_contractions_complete(self):
        rng = np.random.default_rng(21)
        for neg in (0, 1, 2):
            dom = SignatureSpace(3, neg)
            cod = SignatureSpace(2, neg)
            for _ in range(4):
                M = random_j_contraction(rng, dom, cod, strict=0.15)
                ju = julia_operator(M, dom, cod)
                assert metric_classify(ju.operator, ju.dom_signs,
                                       ju.cod_signs) == MetricClass.UNITARY
                # strict contraction: defects have full rank
                assert ju.defect_rank == dom.dim
                assert ju.dual_defect_rank == cod.dim

    def test_expansive_input_rejected(self):
        with pytest.raises(IndefiniteDefectError):
            julia_operator(2.0 * np.eye(2), 2, 2)

    def test_wrong_index_pairing_rejected(self):
        # unequal negative indices are refused before any factoring happens
        with pytest.raises(PreconditionError):
            julia_operator(0.5 * np.eye(2), SignatureSpace(1, 1), SignatureSpace(2, 0))

    def test_bulk_random_completions_are_metric_unitary(self):
        rng = np.random.default_rng(97)
        count = 0
        while count < 200:
            neg = int(rng.integers(0, 3))
            pos_d = int(rng.integers(1, 7 - neg))
            pos_c = int(rng.integers(1, 7 - neg))
            dom = SignatureSpace(pos_d, neg)
            cod = SignatureSpace(pos_c, neg)
            M = random_j_contraction(rng, dom, cod, strict=0.1)
            ju = julia_operator(M, dom, cod)
            U = ju.operator
            Jd = np.diag(ju.dom_signs)
            Jc = np.diag(ju.cod_signs)
            assert np.linalg.norm(Jd - U.conj().T @ Jc @ U, 2) < 1e-8
            assert np.linalg.norm(Jc - U @ Jd @ U.conj().T, 2) < 1e-8
            count += 1


class TestDefectOperators:
    def test_defect_identities_in_the_metrics(self):
        rng = np.random.default_rng(41)
        dom = SignatureSpace(2, 1)
        cod = SignatureSpace(3, 1)
        for _ in range(5):
            M = random_j_contraction(rng, dom, cod, strict=0.2)
            ju = julia_operator(M, dom, cod)
            DT, DTs = ju.defect, ju.dual_defect
            Jd = np.diag(dom.signs)
            Jc = np.diag(cod.signs)
            Mst = Jd @ M.conj().T @ Jc
            # adjoint of a map out of a Hilbert channel picks up the metric
            lhs1 = DT @ (DT.conj().T @ Jd)
            assert np.linalg.norm(lhs1 - (np.eye(dom.dim) - Mst @ M), 2) < 1e-9
            lhs2 = DTs @ (DTs.conj().T @ Jc)
            assert np.linalg.norm(lhs2 - (np.eye(cod.dim) - M @ Mst), 2) < 1e-9
            assert np.linalg.matrix_rank(DT) == DT.shape[1]
            assert np.linalg.matrix_rank(DTs) == DTs.shape[1]

    def test_index_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            julia_operator(np.zeros((2, 2)), SignatureSpace(2, 0), SignatureSpace(1, 1))


def _rotation_equivalent(first, second):
    """Whether two completions of one block differ only by unitary changes
    of basis of the adjoined channels: fit the rotations of the defect
    factors by orthogonal Procrustes and compare the rotated operator."""
    tol = 1e-6 * max(1.0, np.linalg.norm(first.operator, 2))
    if (first.operator.shape != second.operator.shape
            or first.defect_rank != second.defect_rank
            or np.linalg.norm(first.block - second.block, 2) > tol):
        return False
    p, m = first.block.shape
    r1, r2 = first.defect_rank, first.dual_defect_rank
    W1 = np.eye(r1, dtype=complex)
    W2 = np.eye(r2, dtype=complex)
    if r1:
        W1 = orthogonal_procrustes(first.defect, second.defect)[0].conj().T
    if r2:
        W2 = orthogonal_procrustes(first.dual_defect, second.dual_defect)[0]
    left = np.block([[np.eye(p), np.zeros((p, r1))],
                     [np.zeros((r1, p)), W1]])
    right = np.block([[np.eye(m), np.zeros((m, r2))],
                      [np.zeros((r2, m)), W2]])
    return bool(np.linalg.norm(left @ first.operator @ right - second.operator, 2)
                <= tol)


class TestJuliaEquivalence:
    def test_rotated_channels_are_equivalent(self):
        rng = np.random.default_rng(53)
        dom = SignatureSpace(2, 1)
        cod = SignatureSpace(2, 1)
        M = random_j_contraction(rng, dom, cod, strict=0.2)
        ju = julia_operator(M, dom, cod)
        r1, r2 = ju.defect_rank, ju.dual_defect_rank

        def haar(k):
            X = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            Q, R = np.linalg.qr(X)
            return Q * (np.diag(R) / np.abs(np.diag(R)))

        W1, W2 = haar(r1), haar(r2)
        p, m = M.shape
        left = np.block([[np.eye(p), np.zeros((p, r1))],
                         [np.zeros((r1, p)), W1]])
        right = np.block([[np.eye(m), np.zeros((m, r2))],
                          [np.zeros((r2, m)), W2]])
        other = JuliaParts(
            left @ ju.operator @ right,
            ju.dom_signs, ju.cod_signs, ju.block,
            ju.defect @ W1.conj().T,
            ju.dual_defect @ W2,
            W2.conj().T @ ju.link @ W1.conj().T,
        )
        assert _rotation_equivalent(ju, other)
        assert _rotation_equivalent(other, ju)

    def test_different_blocks_are_not_equivalent(self):
        ju_a = julia_operator(np.array([[0.5]]), 1, 1)
        ju_b = julia_operator(np.array([[0.25]]), 1, 1)
        assert not _rotation_equivalent(ju_a, ju_b)


class TestJuliaEmbedding:
    def test_passive_becomes_conservative(self):
        rng = np.random.default_rng(31)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 2, strict=0.2)
        emb = julia_embedding(sys1)
        assert emb.state == sys1.state
        assert np.allclose(emb.A, sys1.A)
        assert system_kind(emb) == SystemKind.CONSERVATIVE

    def test_corner_transfer_is_preserved(self):
        rng = np.random.default_rng(32)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 3, strict=0.25)
        emb = julia_embedding(sys1)
        p, m = sys1.output_dim, sys1.input_dim
        for z in disc_grid(per_ring=6, seed=5):
            full = transfer_eval(emb, z)
            corner = full[:p, :m]
            assert np.linalg.norm(corner - transfer_eval(sys1, z), 2) < 1e-9

    def test_conservative_input_is_fixed_point(self):
        rng = np.random.default_rng(33)
        from pontsys.sampling import random_conservative_colligation

        sys1 = random_conservative_colligation(rng, SignatureSpace(2, 1), 2)
        emb = julia_embedding(sys1)
        assert emb.input_dim == sys1.input_dim
        assert emb.output_dim == sys1.output_dim
        assert np.allclose(emb.D, sys1.D)

    def test_nonpassive_rejected(self):
        bad = Colligation(SignatureSpace(1, 0), 1, 1,
                          [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(PreconditionError):
            julia_embedding(bad)

    def test_stateless_constant_embeds_into_unitary_matrix(self):
        sys1 = Colligation(SignatureSpace(0, 0), 1, 1,
                           np.zeros((0, 0)), np.zeros((0, 1)),
                           np.zeros((1, 0)), [[0.5]])
        emb = julia_embedding(sys1)
        assert emb.state_dim == 0
        assert emb.D.shape == (2, 2)
        assert np.linalg.norm(emb.D.conj().T @ emb.D - np.eye(2), 2) < 1e-12
        assert abs(emb.D[0, 0] - 0.5) < 1e-12

    def test_embedding_inherits_minimality(self):
        from pontsys.colligation import krylov_report

        rng = np.random.default_rng(71)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 2, strict=0.2)
        rep = krylov_report(sys1)
        assert rep.controllable and rep.observable
        rep_emb = krylov_report(julia_embedding(sys1))
        assert rep_emb.controllable and rep_emb.observable and rep_emb.simple

    def test_embedding_keeps_the_pole_set(self):
        rng = np.random.default_rng(72)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 1), 1, 2, strict=0.3)
        emb = julia_embedding(sys1)
        ev_in = np.sort_complex(np.linalg.eigvals(sys1.A))
        ev_out = np.sort_complex(np.linalg.eigvals(emb.A))
        assert np.allclose(ev_in, ev_out)

    def test_defect_channel_count_matches_rank(self):
        # strictly passive scalar system: the 2x2 system operator has a
        # rank-two defect on each side, so two channels are appended
        sys1 = Colligation(SignatureSpace(1, 0), 1, 1,
                           [[0.3]], [[0.4]], [[0.4]], [[0.2]])
        T = np.block([[sys1.A, sys1.B], [sys1.C, sys1.D]])
        expected = np.linalg.matrix_rank(np.eye(2) - T.conj().T @ T)
        emb = julia_embedding(sys1)
        assert emb.input_dim == 1 + expected
        assert emb.output_dim == 1 + expected


class TestOneUnitaryCertificate:
    def test_embedding_certifies_the_completion_once(self, monkeypatch):
        # julia_operator's own certificate would decide a metric class a
        # third time, on the operator that system_kind(embedded) checks
        rng = np.random.default_rng(34)
        sys1 = random_passive_colligation(rng, SignatureSpace(6, 2), 2, 2, strict=0.2)
        calls = spy(monkeypatch, indefinite._defect_class)
        emb = julia_embedding(sys1)
        assert len(calls) == 2
        monkeypatch.undo()
        T, dom, cod = system_operator(sys1)
        ju = julia_operator(T, dom, cod)
        U, emb_dom, emb_cod = system_operator(emb)
        assert np.array_equal(U, ju.operator)
        assert np.array_equal(emb_dom, ju.dom_signs)
        assert np.array_equal(emb_cod, ju.cod_signs)

    def test_embedding_forms_the_operator_defects_once(self, monkeypatch):
        # the defects that decide the kind of T are the ones the completion
        # factors; the second pair is the embedding's own.  Both come from
        # the unchecked core that metric_defects wraps
        rng = np.random.default_rng(36)
        sys1 = random_passive_colligation(rng, SignatureSpace(6, 2), 2, 2, strict=0.2)
        calls = spy(monkeypatch, indefinite._metric_defects)
        emb = julia_embedding(sys1)
        T, _, _ = system_operator(sys1)
        U, _, _ = system_operator(emb)
        assert [args[0].shape for args in calls] == [T.shape, U.shape]
        assert np.array_equal(calls[0][0], T)

    def test_embedding_decomposition_counts(self, monkeypatch):
        # passive n = 40, kappa = 8, m = 3: the two defect factors are the
        # only eigen-solves, and no spectral norm is needed
        rng = np.random.default_rng(35)
        sys1 = random_passive_colligation(rng, SignatureSpace(32, 8), 3, 3, strict=0.2)
        eigvalsh = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        eigh = spy_attr(monkeypatch, np.linalg, "eigh")
        norms = spy_attr(monkeypatch, np.linalg, "norm")
        emb = julia_embedding(sys1)
        assert emb.state == sys1.state
        assert (len(eigvalsh), len(eigh), len(spectral_norms(norms))) == (0, 2, 0)


def _corner_plants():
    """Seeded passive systems, n = 4 to 40: strictly passive ones, whose
    defects have full rank, and direct sums of a conservative system with a
    strictly passive one, whose defects are rank-deficient."""
    plants = []
    for n in (4, 8, 16, 24, 40):
        rng = np.random.default_rng([n, 61])
        kappa = n // 4
        io = 1 + n % 3
        plants.append(random_passive_colligation(
            rng, SignatureSpace(n - kappa, kappa), io, io, strict=0.2))
        visible = random_conservative_colligation(rng, SignatureSpace(n - 2 - kappa, kappa), io)
        plants.append(direct_sum(visible, random_passive_colligation(
            rng, SignatureSpace(2, 0), 1, 1, strict=0.2)))
    return plants


class TestCornerInClosedForm:
    @pytest.mark.parametrize("plant", _corner_plants())
    def test_corner_matches_least_squares(self, plant):
        # E1 = V diag(sqrt(w)) with orthonormal V: the closed-form corner is
        # the least-squares solution of E1 G = rhs
        T, dom, cod = system_operator(plant)
        factors = julia._defect_factors(dom, *indefinite.metric_defects(T, dom, cod),
                                        DEFAULT_TOL)
        ju = julia._julia_completion(T, dom, cod, factors, DEFAULT_TOL)
        E1 = dom[:, None] * factors[0]
        rhs = -(T.conj().T @ (cod[:, None] * factors[1]))
        want = np.linalg.lstsq(E1, rhs, rcond=None)[0]
        got = -ju.link.conj().T
        assert 0 < E1.shape[1] and 0 < factors[1].shape[1]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_direct_sums_have_rank_deficient_defects(self):
        for plant in _corner_plants()[1::2]:
            T, dom, cod = system_operator(plant)
            primal, dual = indefinite.metric_defects(T, dom, cod)
            factors = julia._defect_factors(dom, primal, dual, DEFAULT_TOL)
            assert 0 < factors[0].shape[1] < T.shape[1]
            assert 0 < factors[1].shape[1] < T.shape[0]
