import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.linalg.lapack import ztrsen

from pontsys import colligation
from pontsys.colligation import (
    Colligation,
    SystemKind,
    adjoint_system,
    classify,
    krylov_report,
    system_kind,
    transfer_eval,
)
from pontsys.exceptions import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NonRegularSubspaceError,
    PontsysError,
    PreconditionError,
    _norm2,
)
from pontsys.indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    SignatureSpace,
    SubspaceKind,
    canonical_basis,
    j_complement,
    nullspace,
    subspace_classify,
)
from pontsys.products import (
    SplitKind,
    _certify_factorization,
    _factorize_simple,
    _fundamental_splits,
    _qualifies,
    cascade,
    invariant_fundamental_decompositions,
    kl_factorize_system,
    obstruction_controllable,
    obstruction_observable,
    stability_classify,
)
from pontsys.sampling import (
    boundary_points,
    disc_grid,
    random_conservative_colligation,
    random_passive_colligation,
    random_unitary,
)

from _builders import (
    blaschke_system,
    counterexample_observable_system,
    identity_feedthrough,
    inverse_blaschke_system,
    isometric_column_system,
    same_span,
    spectral_norms,
    spy,
    spy_attr,
)


class TestCascade:
    def test_identity_feedthrough_is_neutral(self):
        sys1 = blaschke_system(0.4)
        cas = cascade(sys1, identity_feedthrough(1))
        assert cas.state_dim == 1
        assert np.allclose(cas.A, sys1.A)
        assert np.allclose(cas.B, sys1.B)
        assert np.allclose(cas.C, sys1.C)
        assert np.allclose(cas.D, sys1.D)

    def test_constant_term_multiplies(self):
        cas = cascade(blaschke_system(0.5), blaschke_system(1.0 / 3.0))
        assert abs(cas.D[0, 0] - 1.0 / 6.0) < 1e-12

    def test_transfer_multiplicativity(self):
        rng = np.random.default_rng(11)
        s1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 2, strict=0.2)
        s2 = random_passive_colligation(rng, SignatureSpace(2, 0), 2, 3, strict=0.2)
        cas = cascade(s1, s2)
        scale = 1.0
        for z in disc_grid(per_ring=17, seed=3)[:50]:
            lhs = transfer_eval(cas, z)
            rhs = transfer_eval(s2, z) @ transfer_eval(s1, z)
            scale = max(scale, np.linalg.norm(rhs, 2))
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * scale

    def test_adjoint_of_cascade_swaps_factors(self):
        rng = np.random.default_rng(12)
        s1 = random_passive_colligation(rng, SignatureSpace(1, 1), 2, 2, strict=0.2)
        s2 = random_passive_colligation(rng, SignatureSpace(2, 0), 2, 2, strict=0.2)
        left = adjoint_system(cascade(s1, s2))
        right = cascade(adjoint_system(s2), adjoint_system(s1))
        n1, n2 = s1.state_dim, s2.state_dim
        P = np.zeros((n1 + n2, n1 + n2))
        P[:n1, n2:] = np.eye(n1)
        P[n1:, :n2] = np.eye(n2)
        assert np.allclose(left.A, P @ right.A @ P.T)
        assert np.allclose(left.B, P @ right.B)
        assert np.allclose(left.C, right.C @ P.T)
        assert np.allclose(left.D, right.D)
        assert np.allclose(left.state.signs, P @ right.state.signs)

    def test_class_preservation(self):
        rng = np.random.default_rng(13)
        # passive and conservative closed under cascade
        p1 = random_passive_colligation(rng, SignatureSpace(2, 1), 2, 2, strict=0.2)
        p2 = random_passive_colligation(rng, SignatureSpace(2, 0), 2, 2, strict=0.2)
        assert system_kind(cascade(p1, p2)) != SystemKind.NONE
        c1 = random_conservative_colligation(rng, SignatureSpace(2, 1), 2)
        c2 = random_conservative_colligation(rng, SignatureSpace(1, 1), 2)
        assert system_kind(cascade(c1, c2)) == SystemKind.CONSERVATIVE
        # isometric factors from conservative ones by dropping an input
        i1 = Colligation(c1.state, 1, 2, c1.A, c1.B[:, :1], c1.C, c1.D[:, :1])
        i2 = Colligation(c2.state, 2, 2, c2.A, c2.B, c2.C, c2.D)
        assert system_kind(i1) == SystemKind.ISOMETRIC
        assert (system_kind(cascade(i1, i2))
                in (SystemKind.ISOMETRIC, SystemKind.CONSERVATIVE))
        # coisometric factors by dropping an output
        o2 = Colligation(c2.state, 2, 1, c2.A, c2.B, c2.C[:1, :], c2.D[:1, :])
        assert system_kind(o2) == SystemKind.COISOMETRIC
        o1 = random_conservative_colligation(rng, SignatureSpace(2, 0), 2)
        assert (system_kind(cascade(o1, o2))
                in (SystemKind.COISOMETRIC, SystemKind.CONSERVATIVE))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cascade(blaschke_system(0.4), identity_feedthrough(2))


class TestObstructions:
    def test_distinct_blaschke_product_is_clean(self):
        s1 = blaschke_system(0.5)
        s2 = blaschke_system(-0.3)
        rep_o = obstruction_observable(s1, s2)
        rep_c = obstruction_controllable(s1, s2)
        assert rep_o.dimension == 0
        assert rep_c.dimension == 0
        assert rep_o.agreement_residual <= 1e-8

    def test_dead_second_state_is_unobservable(self):
        s1 = blaschke_system(0.4)
        dead = Colligation(SignatureSpace(2, 0), 1, 1,
                           0.5 * np.eye(2), np.zeros((2, 1)),
                           np.zeros((1, 2)), [[1.0]])
        rep = obstruction_observable(s1, dead)
        assert rep.dimension >= 2
        # solutions live in the dead state block
        assert np.linalg.norm(rep.basis[: rep.split], 2) < 1e-10

    def test_dead_first_input_is_uncontrollable(self):
        dead = Colligation(SignatureSpace(2, 0), 1, 1,
                           0.5 * np.eye(2), np.zeros((2, 1)),
                           np.zeros((1, 2)), [[1.0]])
        rep = obstruction_controllable(dead, blaschke_system(0.4))
        assert rep.dimension >= 2

    def test_counterexample_cascade_is_not_observable(self):
        # the inverse Blaschke factor applied after the row (a*b, 1)/sqrt(2)
        # hides one state direction no matter how the factors are realized
        ab = cascade(blaschke_system(1.0 / 3.0), blaschke_system(0.5))
        s_l = Colligation(
            SignatureSpace(2, 0), 2, 1,
            ab.A, np.hstack([ab.B, np.zeros((2, 1))]),
            ab.C / math.sqrt(2.0),
            np.array([[ab.D[0, 0] / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]]))
        rep = obstruction_observable(s_l, inverse_blaschke_system(0.5))
        assert rep.dimension >= 1

    def test_counterexample_adjoint_is_not_controllable(self):
        ab = cascade(blaschke_system(1.0 / 3.0), blaschke_system(0.5))
        s_l = Colligation(
            SignatureSpace(2, 0), 2, 1,
            ab.A, np.hstack([ab.B, np.zeros((2, 1))]),
            ab.C / math.sqrt(2.0),
            np.array([[ab.D[0, 0] / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]]))
        binv = inverse_blaschke_system(0.5)
        rep = obstruction_controllable(adjoint_system(binv), adjoint_system(s_l))
        assert rep.dimension >= 1

    def test_dual_consistency(self):
        rng = np.random.default_rng(17)
        s1 = random_passive_colligation(rng, SignatureSpace(2, 0), 1, 2, strict=0.2)
        s2 = random_passive_colligation(rng, SignatureSpace(1, 1), 2, 1, strict=0.2)
        rep_c = obstruction_controllable(s1, s2)
        rep_o = obstruction_observable(adjoint_system(s2), adjoint_system(s1))
        assert rep_c.dimension == rep_o.dimension

    def test_no_common_zero_product_stays_observable(self):
        rng = np.random.default_rng(23)
        binv = inverse_blaschke_system(0.5)
        for _ in range(3):
            theta = random_passive_colligation(
                rng, SignatureSpace(2, 0), 1, 2, strict=0.2)
            assert classify(theta).observable
            # no common zero: the second factor must not vanish at the
            # Blaschke zero alpha = 1/2
            if np.linalg.norm(transfer_eval(theta, 0.5), 2) < 0.1:
                continue
            rep = obstruction_observable(binv, theta)
            assert rep.dimension == 0

    def test_random_minimal_conservative_pair_is_controllable(self):
        rng = np.random.default_rng(29)
        s1 = random_conservative_colligation(rng, SignatureSpace(2, 0), 2)
        s2 = random_conservative_colligation(rng, SignatureSpace(1, 1), 2)
        assert classify(s1).minimal and classify(s2).minimal
        rep = obstruction_controllable(s1, s2)
        assert rep.dimension == 0


    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_pole_zero_cancellation_pair(self, n):
        # first = cascade(passive Hilbert P, b_beta) and second = 1/b_beta:
        # the pole of the second at beta meets the zero of the first, and
        # the zero of the second at 1/conj(beta) meets the pole of the
        # first, so the cascade hides one mode from each side.  The Hautus
        # test sees it on every size; the recurrence of the primary route
        # loses the hidden reachable mode from 8 states on, and the
        # controllability obstruction then refuses, typed, rather than
        # answer 0.  Each outcome is recorded here.
        beta = 0.5
        P = random_passive_colligation(np.random.default_rng([n, 0]),
                                       SignatureSpace(n, 0), 1, 1, strict=0.2)
        first, second = cascade(P, blaschke_system(beta)), inverse_blaschke_system(beta)
        cas = cascade(first, second)
        for A, B in ((cas.A, cas.B), (cas.A.conj().T, cas.C.conj().T)):
            dist = sorted(np.linalg.svd(np.hstack([A - lam * np.eye(n + 2), B]),
                                        compute_uv=False)[n + 1]
                          for lam in np.linalg.eigvals(A))
            assert dist[0] < 1e-12 < 1e-3 < dist[1]
        outcomes = []
        for check in (obstruction_observable, obstruction_controllable):
            try:
                rep = check(first, second)
            except InternalConsistencyError as exc:
                outcomes.append(str(exc))
            else:
                assert rep.agreement_residual <= 1e-8
                outcomes.append(rep.dimension)
        refused = "controllability obstruction: kernel dimensions disagree (0 vs 1)"
        assert outcomes == {4: [1, 1], 8: [1, refused], 12: [1, refused]}[n]


class TestFundamentalSplits:
    def test_pure_negative_state(self):
        plus, minus = invariant_fundamental_decompositions(
            inverse_blaschke_system(0.5))
        assert minus.which == SplitKind.MINUS_INVARIANT
        assert plus.which == SplitKind.PLUS_INVARIANT
        assert minus.Xminus.dim == 1 and minus.Xplus.dim == 0
        assert plus.Xminus.dim == 1 and plus.Xplus.dim == 0
        assert minus.invariance_residual <= 1e-9

    def test_two_state_cascade_eigenvector(self):
        sys1 = cascade(inverse_blaschke_system(0.5), blaschke_system(1.0 / 3.0))
        plus, minus = invariant_fundamental_decompositions(sys1)
        assert minus.Xminus.dim == 1
        # the negative invariant line is the eigenvector for the eigenvalue
        # of modulus two; solve (A - 2 I) v = 0 by hand for the oracle
        A = sys1.A
        assert abs(A[0, 0] - 2.0) < 1e-12
        coupling = A[1, 0]
        v = np.array([[1.0], [coupling / (2.0 - A[1, 1])]])
        assert same_span(minus.Xminus.basis, v)
        assert subspace_classify(minus.Xminus) == SubspaceKind.ANTIHILBERT
        assert subspace_classify(minus.Xplus) == SubspaceKind.HILBERT

    def test_hilbert_state_is_all_plus(self):
        rng = np.random.default_rng(31)
        sys1 = random_passive_colligation(rng, SignatureSpace(3, 0), 2, 2, strict=0.2)
        plus, minus = invariant_fundamental_decompositions(sys1)
        assert minus.Xminus.dim == 0
        assert plus.Xplus.dim == 3

    def test_positive_boundary_rotation_is_tolerated(self):
        # decoupled unimodular mode with a positive eigenspace: the split
        # exists, the rotation simply stays in the plus half
        sys1 = Colligation(SignatureSpace(1, 0), 1, 1,
                           [[np.exp(0.7j)]], [[0.0]], [[0.0]], [[1.0]])
        plus, minus = invariant_fundamental_decompositions(sys1)
        assert minus.Xminus.dim == 0
        assert plus.Xplus.dim == 1

    @pytest.mark.parametrize("call", [
        invariant_fundamental_decompositions,
        stability_classify,
        lambda system: kl_factorize_system(system, "right"),
        lambda system: kl_factorize_system(system, "left"),
    ], ids=["splits", "stability", "kl-right", "kl-left"])
    def test_negative_boundary_mode_is_refused(self, call):
        alpha = 1.0 - 1e-10
        with pytest.raises(AmbiguousSpectrumError):
            call(inverse_blaschke_system(alpha))

    @pytest.mark.parametrize("eigenvectors, eigenvalues", [
        # the outside-disc line (1, 1) is neutral: the first split fails
        ([[1.0, 1.0], [1.0, -1.0]], [2.0, 0.5]),
        # the outside-disc line e2 is negative, the inside one (1, 1)
        # neutral: the first split passes and the second fails
        ([[0.0, 1.0], [1.0, 1.0]], [2.0, 0.5]),
    ], ids=["outside", "inside"])
    def test_degenerate_invariant_half_is_refused(self, eigenvectors, eigenvalues):
        # past the preconditions, which no passive system violates this way
        V = np.array(eigenvectors)
        A = V @ np.diag(eigenvalues) @ np.linalg.inv(V)
        system = Colligation(SignatureSpace(1, 1), 1, 1, A,
                             [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(NonRegularSubspaceError,
                           match="^complement of a degenerate subspace is not direct$"):
            _fundamental_splits(system, DEFAULT_TOL)

    @pytest.mark.parametrize("eigenvalues, error, message", [
        # the near-circle line e1 is positive, but the left eigenvector
        # (1, 0, -2) is not: refused on A^H before the outside-disc line
        # (1, 0, 1/2), which is not negative, is formed as a half
        ([1.0 - 1e-10, 0.5, 2.0], AmbiguousSpectrumError,
         "lies within 1e-08 of the unit circle$"),
        # nothing outside the disc for kappa = 1
        ([0.5, 0.3, 0.2], InternalConsistencyError,
         "^negative half has dimension 0, expected 1$"),
    ], ids=["left-eigenvector", "count"])
    def test_spectral_refusals_precede_the_halves(self, eigenvalues, error, message):
        # past the preconditions, which no passive system violates this way
        V = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        A = V @ np.diag(eigenvalues) @ np.linalg.inv(V)
        system = Colligation(SignatureSpace(2, 1), 1, 1, A,
                             [[1.0], [0.0], [0.0]], [[1.0, 0.0, 0.0]], [[0.0]])
        with pytest.raises(error, match=message):
            _fundamental_splits(system, DEFAULT_TOL)

    def test_preconditions(self):
        expansive = Colligation(SignatureSpace(1, 0), 1, 1,
                                [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(PreconditionError):
            invariant_fundamental_decompositions(expansive)
        base = inverse_blaschke_system(0.5)
        hidden = Colligation(SignatureSpace(0, 2), 1, 1,
                             [[base.A[0, 0], 0.0], [0.0, 1.5]],
                             [[base.B[0, 0]], [0.0]],
                             [[base.C[0, 0], 0.0]], base.D)
        with pytest.raises(PreconditionError):
            invariant_fundamental_decompositions(hidden)


# (n, kappa, channels, hidden) of the non-simple conservative plants that
# _padded_conservative builds
_PADDED_CASES = [
    (2, 0, 1, 1), (3, 1, 1, 2), (5, 2, 2, 1), (8, 3, 1, 3),
    (10, 0, 3, 2), (12, 4, 2, 4), (16, 5, 1, 5), (20, 6, 3, 1),
    (24, 2, 2, 3), (28, 7, 1, 2), (32, 8, 2, 4), (35, 8, 3, 5),
]


class TestKLFactorizeSystem:
    def test_right_mode_round_trip(self):
        sys1 = cascade(inverse_blaschke_system(0.5), blaschke_system(0.3))
        result = kl_factorize_system(sys1, "right")
        schur, invb = result
        assert invb.state_dim == 1
        assert (invb.state.pos, invb.state.neg) == (0, 1)
        assert schur.state.neg == 0
        assert result.reconstruction_residual <= 1e-8
        for z in disc_grid(per_ring=8, seed=2):
            lhs = transfer_eval(sys1, z)
            rhs = transfer_eval(schur, z) @ transfer_eval(invb, z)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-7

    def test_left_mode_round_trip(self):
        sys1 = cascade(blaschke_system(0.25), inverse_blaschke_system(0.6))
        result = kl_factorize_system(sys1, "left")
        schur, invb = result
        assert invb.state_dim == 1
        assert schur.state.neg == 0
        for z in disc_grid(per_ring=8, seed=4):
            lhs = transfer_eval(sys1, z)
            rhs = transfer_eval(invb, z) @ transfer_eval(schur, z)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-7

    def test_hilbert_state_gives_trivial_negative_factor(self):
        result = kl_factorize_system(blaschke_system(0.5), "right")
        schur, invb = result
        assert invb.state_dim == 0
        assert np.allclose(invb.D, np.eye(1))
        for z in disc_grid(per_ring=6, seed=6):
            assert abs(transfer_eval(schur, z)[0, 0]
                       - transfer_eval(blaschke_system(0.5), z)[0, 0]) < 1e-9

    def test_kappa_two(self):
        sys1 = cascade(inverse_blaschke_system(0.5),
                       cascade(inverse_blaschke_system(-0.4), blaschke_system(0.2)))
        assert sys1.kappa == 2
        result = kl_factorize_system(sys1, "right")
        assert result.inverse_blaschke_factor.state_dim == 2
        result_l = kl_factorize_system(sys1, "left")
        assert result_l.inverse_blaschke_factor.state_dim == 2

    def test_nonsimple_conservative_two_step(self):
        core = cascade(inverse_blaschke_system(0.5), blaschke_system(0.3))
        A = np.zeros((3, 3), dtype=complex)
        A[:2, :2] = core.A
        A[2, 2] = np.exp(0.9j)
        sys1 = Colligation(
            SignatureSpace.from_signs(np.concatenate([core.state.signs, [1.0]])),
            1, 1, A, np.vstack([core.B, [[0.0]]]),
            np.hstack([core.C, [[0.0]]]), core.D)
        cls = classify(sys1)
        assert cls.kind == SystemKind.CONSERVATIVE and not cls.simple
        for mode in ("right", "left"):
            result = kl_factorize_system(sys1, mode)
            assert result.inverse_blaschke_factor.state_dim == 1
            assert result.schur_factor.state_dim == 2
            assert result.reconstruction_residual <= 1e-8

    @pytest.mark.parametrize("mode", ["right", "left"])
    @pytest.mark.parametrize("n, kappa, channels, hidden", _PADDED_CASES)
    def test_nonsimple_factors_on_its_splits(self, n, kappa, channels, hidden, mode):
        # the unitary Hilbert block stays in the Schur factor; the inverse
        # Blaschke factor carries exactly the spectrum outside the disc
        system = _padded_conservative(n, kappa, channels, hidden)
        assert not classify(system).simple
        # returns only past its reconstruction and minimality certificates
        result = kl_factorize_system(system, mode)
        assert result.schur_factor.state_dim == n - kappa + hidden
        lam = np.linalg.eigvals(system.A)
        outside = lam[np.abs(lam) > 1.0 + 1e-6]
        got = np.linalg.eigvals(result.inverse_blaschke_factor.A)
        assert got.size == outside.size == kappa
        rows, cols = scipy.optimize.linear_sum_assignment(
            np.abs(got[:, None] - outside[None, :]))
        assert np.max(np.abs(got[rows] - outside[cols]), initial=0.0) <= 1e-6

    def test_one_sided_preconditions(self):
        iso = isometric_column_system()
        cls = classify(iso)
        assert cls.kind == SystemKind.ISOMETRIC and cls.controllable
        result = kl_factorize_system(iso, "left")
        assert result.inverse_blaschke_factor.state_dim == 1
        with pytest.raises(PreconditionError):
            kl_factorize_system(iso, "right")
        co = adjoint_system(iso)
        result_r = kl_factorize_system(co, "right")
        assert result_r.inverse_blaschke_factor.state_dim == 1
        with pytest.raises(PreconditionError):
            kl_factorize_system(co, "left")

    def test_counterexample_has_right_but_not_left(self):
        sys1 = counterexample_observable_system()
        result = kl_factorize_system(sys1, "right")
        assert result.inverse_blaschke_factor.state_dim == 1
        with pytest.raises(PreconditionError):
            kl_factorize_system(sys1, "left")

    def test_strict_contraction_is_rejected(self):
        rng = np.random.default_rng(37)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 0), 1, 1, strict=0.3)
        with pytest.raises(PreconditionError):
            kl_factorize_system(sys1, "right")

    def test_bad_mode(self):
        with pytest.raises(InputError):
            kl_factorize_system(blaschke_system(0.5), "sideways")


class TestStabilityClassify:
    def test_blaschke_is_bistable_conservative(self):
        cls = stability_classify(blaschke_system(0.5))
        assert cls.label == "C00"
        assert cls.kappa == 0
        assert cls.forward and cls.backward and cls.bistable
        assert abs(cls.forward_radius - 0.5) < 1e-12

    def test_decoupled_rotation_has_no_class(self):
        sys1 = Colligation(SignatureSpace(1, 0), 1, 1,
                           [[np.exp(0.7j)]], [[0.0]], [[0.0]], [[1.0]])
        cls = stability_classify(sys1)
        assert not cls.forward and not cls.backward
        assert cls.label == "none"

    def test_pure_negative_state_is_vacuously_bistable(self):
        cls = stability_classify(inverse_blaschke_system(0.5))
        assert cls.label == "C00"
        assert cls.kappa == 1
        # consistency: the transfer function has unimodular boundary values
        sys1 = inverse_blaschke_system(0.5)
        for z in boundary_points(32):
            assert abs(abs(transfer_eval(sys1, z)[0, 0]) - 1.0) < 1e-9

    def test_strict_passive_hilbert_state(self):
        rng = np.random.default_rng(41)
        sys1 = random_passive_colligation(rng, SignatureSpace(2, 0), 1, 1, strict=0.3)
        cls = stability_classify(sys1)
        assert cls.label == "P00"
        assert cls.kappa == 0

    def test_one_sided_classes(self):
        iso = isometric_column_system()
        cls = stability_classify(iso)
        assert cls.label == "I0."
        co = adjoint_system(iso)
        cls2 = stability_classify(co)
        assert cls2.label == "I*.0"

    def test_strict_passive_with_negative_state(self):
        rng = np.random.default_rng(43)
        sys1 = random_passive_colligation(rng, SignatureSpace(1, 1), 1, 1, strict=0.3)
        cls = stability_classify(sys1)
        assert cls.kappa == 1
        assert cls.label == "P00"

    def test_nonpassive_rejected(self):
        bad = Colligation(SignatureSpace(1, 0), 1, 1,
                          [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(PreconditionError):
            stability_classify(bad)


def _nonsimple_conservative():
    core = cascade(inverse_blaschke_system(0.5), blaschke_system(0.3))
    A = np.zeros((3, 3), dtype=complex)
    A[:2, :2] = core.A
    A[2, 2] = np.exp(0.9j)
    return Colligation(
        SignatureSpace.from_signs(np.concatenate([core.state.signs, [1.0]])),
        1, 1, A, np.vstack([core.B, [[0.0]]]),
        np.hstack([core.C, [[0.0]]]), core.D)


def _padded_conservative(n, kappa, channels, hidden):
    """A random conservative core of n states, kappa of them negative, beside
    a decoupled unitary Hilbert block of `hidden` states, in permuted
    coordinates: a non-simple conservative system of n + hidden states."""
    rng = np.random.default_rng([20, n, kappa, channels, hidden])
    core = random_conservative_colligation(
        rng, SignatureSpace(n - kappa, kappa), channels)
    size = n + hidden
    A = np.zeros((size, size), dtype=complex)
    A[:n, :n] = core.A
    A[n:, n:] = random_unitary(rng, hidden)
    B = np.vstack([core.B, np.zeros((hidden, channels))])
    C = np.hstack([core.C, np.zeros((channels, hidden))])
    signs = np.concatenate([core.state.signs, np.ones(hidden)])
    perm = rng.permutation(size)
    return Colligation(SignatureSpace.from_signs(signs[perm]), channels, channels,
                       A[np.ix_(perm, perm)], B[perm], C[:, perm], core.D)


class TestOneClassificationPerSystem:
    """Each entry point builds the Krylov report of its input once."""

    def systems(self):
        rng = np.random.default_rng(10)
        return [
            cascade(inverse_blaschke_system(0.5), blaschke_system(0.3)),
            _nonsimple_conservative(),
            random_conservative_colligation(rng, SignatureSpace(7, 3), 2),
        ]

    @pytest.mark.parametrize("mode", ["right", "left"])
    def test_kl_factorize_system(self, monkeypatch, mode):
        calls = spy(monkeypatch, krylov_report)
        for system in self.systems():
            calls.clear()
            fac = kl_factorize_system(system, mode)
            assert sum(args[0] is system for args in calls) == 1
            # the only other report certifies the inverse Blaschke factor
            assert all(args[0] is system or args[0] is fac.inverse_blaschke_factor
                       for args in calls)

    @pytest.mark.parametrize("mode", ["right", "left"])
    def test_nonsimple_takes_two_forms_and_two_reports(self, monkeypatch, mode):
        # one Schur form and one report each for the input and for the
        # inverse Blaschke factor; no restriction is classified again
        system = _padded_conservative(31, 6, 2, 5)
        forms = spy_attr(monkeypatch, scipy.linalg, "schur")
        reports = spy(monkeypatch, krylov_report)
        fac = kl_factorize_system(system, mode)
        assert len(forms) == 2
        assert len(reports) == 2
        assert fac.inverse_blaschke_factor.state_dim == 6
        assert not classify(system).simple

    def test_stability_classify(self, monkeypatch):
        calls = spy(monkeypatch, krylov_report)
        for system in self.systems() + [isometric_column_system()]:
            stability_classify(system)
            assert sum(args[0] is system for args in calls) == 1

    def test_precondition_order_is_kept(self):
        expansive = Colligation(SignatureSpace(1, 0), 1, 1,
                                [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        base = inverse_blaschke_system(0.5)
        hidden = Colligation(SignatureSpace(0, 2), 1, 1,
                             [[base.A[0, 0], 0.0], [0.0, 1.5]],
                             [[base.B[0, 0]], [0.0]],
                             [[base.C[0, 0], 0.0]], base.D)
        with pytest.raises(PreconditionError, match="passive system"):
            stability_classify(expansive)
        with pytest.raises(PreconditionError, match="index-preserving"):
            stability_classify(hidden)
        with pytest.raises(PreconditionError, match="right mode"):
            kl_factorize_system(expansive)
        for mode in ("right", "left"):
            with pytest.raises(PreconditionError, match="index-preserving"):
                kl_factorize_system(hidden, mode)


class TestHautusOnTheSharedForm:
    """Generic conservative n = 40, kappa = 8, one channel: every entry point
    that classifies its input decides reachability and observability on
    the input's one Schur form, with no Arnoldi recurrence."""

    @pytest.mark.parametrize("call", [
        classify,
        lambda system: kl_factorize_system(system, "right"),
        lambda system: kl_factorize_system(system, "left"),
        stability_classify,
        invariant_fundamental_decompositions,
    ], ids=["classify", "kl-right", "kl-left", "stability", "splits"])
    def test_no_recurrence_and_one_schur_form(self, monkeypatch, call):
        system = random_conservative_colligation(
            np.random.default_rng([40, 8]), SignatureSpace(32, 8), 1)
        arnoldi = spy(monkeypatch, colligation._krylov_basis)
        forms = spy_attr(monkeypatch, scipy.linalg, "schur")
        call(system)
        assert arnoldi == []
        assert sum(args[0] is system.A for args in forms) == 1


# The splits and radii before one Schur form served them: each outside
# subspace from its own eigenvalues and sorted Schur form (more of both
# when eigenvalues sit near the circle), the other split's
# invariant half as the null space of the outside subspace of A^H, and
# each radius from the eigenvalues of a compression.  Kept as the
# reference the Schur-form splits must reproduce.
def _old_spectral_subspace(A, state, select, tol, on_boundary="error"):
    lam = np.linalg.eigvals(A)
    near = np.abs(np.abs(lam) - 1.0) <= tol.metric_tol
    if on_boundary == "error" and near.any():
        raise AmbiguousSpectrumError(f"eigenvalue {lam[near][0]} near the circle")
    _, Z, k = scipy.linalg.schur(A, output="complex", sort=select)
    return IndefiniteSubspace(state, Z[:, :k])


def _old_outside_subspace(A, state, tol):
    band = tol.metric_tol
    outside = lambda lam: abs(lam) > 1.0 + band
    try:
        return _old_spectral_subspace(A, state, outside, tol)
    except AmbiguousSpectrumError:
        sub = _old_spectral_subspace(A, state, outside, tol, "exclude")
        near = _old_spectral_subspace(
            A, state, lambda lam: abs(abs(lam) - 1.0) <= band, tol, "exclude")
        if near.dim and subspace_classify(near, tol) != SubspaceKind.HILBERT:
            raise
        return sub


def _old_restricted_radius(op, space, tol):
    if space.dim == 0:
        return 0.0
    W, _ = canonical_basis(space, tol)
    signs = space.ambient.signs
    compressed = (W.conj().T * signs[None, :]) @ op @ W
    return float(np.max(np.abs(np.linalg.eigvals(compressed))))


def _old_splits(system, tol=DEFAULT_TOL):
    """((plus2, minus2), (plus1, minus1), forward radius, backward radius)."""
    state, A, signs = system.state, system.A, system.state.signs
    minus1 = _old_outside_subspace(A, state, tol)
    plus1 = j_complement(minus1, tol)
    left_out = _old_outside_subspace(A.conj().T, state, tol)
    plus2 = IndefiniteSubspace(state, nullspace(left_out.basis.conj().T, tol))
    minus2 = j_complement(plus2, tol)
    adjoint = signs[:, None] * A.conj().T * signs[None, :]
    return ((plus2, minus2), (plus1, minus1),
            _old_restricted_radius(A, plus2, tol),
            _old_restricted_radius(adjoint, plus1, tol))


def _largest_angle(X, Y):
    if X.shape[1] == 0:
        return 0.0
    return float(np.max(scipy.linalg.subspace_angles(X, Y)))


def _seeded_systems():
    """Passive (strict = 0.2) and conservative systems, n = 8-40, kappa <= 8,
    1-3 channels, three per kind and size."""
    for kind in ("passive", "conservative"):
        for n in (8, 16, 24, 32, 40):
            for seed in range(3):
                rng = np.random.default_rng([n, seed, len(kind)])
                kappa = int(rng.integers(0, min(8, n // 2) + 1))
                io = int(rng.integers(1, 4))
                state = SignatureSpace(n - kappa, kappa)
                if kind == "conservative":
                    yield random_conservative_colligation(rng, state, io)
                else:
                    yield random_passive_colligation(rng, state, io, io, strict=0.2)


class TestOneSchurForm:
    """The splits and radii of one Schur form against the two-route ones."""

    @pytest.mark.parametrize("system", list(_seeded_systems()) + [
        _nonsimple_conservative(),
        Colligation(SignatureSpace(1, 0), 1, 1,
                    [[np.exp(0.7j)]], [[0.0]], [[0.0]], [[1.0]])])
    def test_matches_the_two_route_splits(self, system):
        split_plus, split_minus = invariant_fundamental_decompositions(system)
        st = stability_classify(system)
        old_plus, old_minus, rf, rb = _old_splits(system)
        new = (split_plus.Xplus, split_plus.Xminus,
               split_minus.Xplus, split_minus.Xminus)
        for old, got in zip(old_plus + old_minus, new):
            assert got.dim == old.dim
            assert _largest_angle(got.basis, old.basis) <= 1e-8
        assert st.forward_radius == st.backward_radius
        assert abs(st.forward_radius - rf) <= 1e-10
        assert abs(st.backward_radius - rb) <= 1e-10

    def test_one_schur_form_per_split(self, monkeypatch):
        calls = spy_attr(monkeypatch, scipy.linalg, "schur")
        for system in (_nonsimple_conservative(),
                       random_conservative_colligation(
                           np.random.default_rng(5), SignatureSpace(32, 8), 2)):
            calls.clear()
            _fundamental_splits(system, DEFAULT_TOL)
            assert len(calls) == 1

    def test_no_general_eigenvalues_in_stability_classify(self, monkeypatch):
        calls = spy_attr(monkeypatch, np.linalg, "eigvals")
        rng = np.random.default_rng(6)
        for system in (_nonsimple_conservative(), isometric_column_system(),
                       random_passive_colligation(
                           rng, SignatureSpace(32, 8), 2, 2, strict=0.2)):
            stability_classify(system)
        assert calls == []


class TestDecompositionCounts:
    """Conservative n = 40, kappa = 8: the Hermitian certificates of the
    factorization and of the stability class take no eigenvalue solve, the
    factorization forms only the split its mode reads and its spectral
    norms are only its reported residuals, the stability class forms no
    split, and the splits take no SVD."""

    def system(self):
        rng = np.random.default_rng(44)
        return random_conservative_colligation(rng, SignatureSpace(32, 8), 2)

    def kl_factorize(self, monkeypatch, mode):
        system = self.system()
        eigvalsh = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        norms = spy_attr(monkeypatch, np.linalg, "norm")
        reorders = spy(monkeypatch, ztrsen)
        kinds = spy(monkeypatch, subspace_classify)
        fac = kl_factorize_system(system, mode)
        assert fac.inverse_blaschke_factor.state_dim == 8
        assert eigvalsh == []
        # one split: one reordering, its two halves classified once each
        assert len(reorders) == 1
        assert len(kinds) == 2
        # one invariance residual and four reconstruction residuals
        assert len(spectral_norms(norms)) <= 5

    def test_kl_factorize_right(self, monkeypatch):
        self.kl_factorize(monkeypatch, "right")

    def test_kl_factorize_left(self, monkeypatch):
        self.kl_factorize(monkeypatch, "left")

    def test_stability_classify(self, monkeypatch):
        system = self.system()
        eigvalsh = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        reorders = spy(monkeypatch, ztrsen)
        kinds = spy(monkeypatch, subspace_classify)
        norms = spy(monkeypatch, _norm2)
        assert stability_classify(system).kappa == 8
        assert eigvalsh == []
        # no split: no reordering, no half, no invariance residual
        assert reorders == kinds == norms == []

    def test_splits_take_no_svd_and_classify_each_half_once(self, monkeypatch):
        # each metric complement is J times the other Schur vectors
        system = self.system()
        svd = spy_attr(monkeypatch, np.linalg, "svd")
        kinds = spy(monkeypatch, subspace_classify)
        split_plus, split_minus = _fundamental_splits(system, DEFAULT_TOL)
        assert svd == []
        for split in (split_plus, split_minus):
            assert (split.Xplus.dim, split.Xminus.dim) == (32, 8)
            for half in (split.Xplus, split.Xminus):
                assert sum(args[0] is half for args in kinds) == 1


def _near_band_plants():
    """One-state Blaschke and inverse Blaschke plants with alpha within
    1e-12 to 1e-6 of one, alone and behind inverse_blaschke_system(0.5).
    The builders realize only |alpha| < 1: the eigenvalue sits at alpha
    inside the circle, or at 1 / alpha outside it."""
    for delta in (1e-12, 1e-10, 2e-9, 1e-6):
        for build in (blaschke_system, inverse_blaschke_system):
            plant = build(1.0 - delta)
            yield plant
            yield cascade(inverse_blaschke_system(0.5), plant)


_PARITY_SYSTEMS = (
    list(_seeded_systems()) + list(_near_band_plants())
    + [Colligation(SignatureSpace(1, 0), 1, 1,
                   [[np.exp(0.7j)]], [[0.0]], [[0.0]], [[1.0]])]
    + [_padded_conservative(*case) for case in _PADDED_CASES])


def _two_split_stability(system, tol=DEFAULT_TOL):
    """(label, radius) of stability_classify as read past both fundamental
    splits, whose every refusal fires first; the reference the split-free
    stability class must reproduce."""
    invariant_fundamental_decompositions(system, tol)
    cls = classify(system, tol)
    form = system._spectrum
    outside = form.regions(tol.metric_tol)[2]
    radius = float(np.max(np.abs(form.eigenvalues[~outside]), initial=0.0))
    if radius >= 1.0 - tol.metric_tol:
        return "none", radius
    if cls.kind == SystemKind.CONSERVATIVE and cls.simple:
        return "C00", radius
    if cls.kind == SystemKind.ISOMETRIC and cls.controllable:
        return "I0.", radius
    if cls.kind == SystemKind.COISOMETRIC and cls.observable:
        return "I*.0", radius
    return "P00", radius


def _two_split_factorization(system, mode, tol=DEFAULT_TOL):
    """(schur, invb, state map, residual) from both fundamental splits, of
    which _factorize_simple reads the one of its mode; the reference the
    one-split factorization must reproduce past its classification."""
    split_plus, split_minus = _fundamental_splits(system, tol)
    split = split_plus if mode == "right" else split_minus
    schur, invb, Z = _factorize_simple(system, split, mode, tol)
    return schur, invb, Z, _certify_factorization(system, schur, invb, Z, mode, tol)


def _raises_as(exc, call, *args):
    """call(*args) raises an error of exactly the type and message of exc."""
    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as info:
        call(*args)
    assert type(info.value) is type(exc)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestOneSplitPerVerdict:
    """The stability class forms no split and each factorization only the
    split its mode reads; both refuse and answer, to the bit, as the
    construction of both splits does, on seeded, near-band, rotation and
    non-simple plants."""

    @pytest.mark.parametrize("system", _PARITY_SYSTEMS)
    def test_stability_matches_the_two_split_route(self, system):
        try:
            want = _two_split_stability(system)
        except PontsysError as exc:
            _raises_as(exc, stability_classify, system)
            return
        st = stability_classify(system)
        assert st.label == want[0]
        assert _same_bits(st.forward_radius, want[1])
        assert _same_bits(st.backward_radius, want[1])

    @pytest.mark.parametrize("mode", ["right", "left"])
    @pytest.mark.parametrize("system", _PARITY_SYSTEMS)
    def test_kl_factors_match_the_two_split_route(self, system, mode):
        cls = classify(system)
        if not (cls.krylov.index_preserving and _qualifies(cls, mode)):
            # refused on its classification, before any split is formed
            with pytest.raises(PreconditionError):
                kl_factorize_system(system, mode)
            return
        try:
            schur, invb, Z, resid = _two_split_factorization(system, mode)
        except PontsysError as exc:
            _raises_as(exc, kl_factorize_system, system, mode)
            return
        fac = kl_factorize_system(system, mode)
        for got, want in ((fac.schur_factor, schur), (fac.inverse_blaschke_factor, invb)):
            assert _same_bits(got.state.signs, want.state.signs)
            for name in "ABCD":
                assert _same_bits(getattr(got, name), getattr(want, name))
        assert _same_bits(fac.state_map, Z)
        assert _same_bits(fac.reconstruction_residual, resid)
