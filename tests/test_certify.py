"""The failure half of the certificate contract.

Every numeric certificate goes through exceptions.certify, so a residual
above its bound, or a NaN one, ends in InternalConsistencyError naming
the certificate, and the CLI maps that error to exit code 1.  Each layer
is driven to a failing certificate by perturbing the private step that
feeds it.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from _builders import blaschke_system, markov, spy, spy_attr
from pontsys import cli, colligation, julia, products, schur
from pontsys.cli import main, save_system
from pontsys.colligation import state_change, unitary_similarity, weak_similarity
from pontsys.exceptions import (
    InternalConsistencyError,
    PontsysError,
    _certify_residual,
    _certify_scaled,
    _fro,
    _gram_eigenvalues,
    _norm2,
    _residual_norm,
    _spectral_norms,
    certify,
)
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace
from pontsys.products import invariant_fundamental_decompositions, kl_factorize_system
from pontsys.sampling import (
    random_conservative_colligation,
    random_j_contraction,
    random_passive_colligation,
    random_unitary,
)
from pontsys.schur import kl_factorize_function


def conservative_system(seed=5, pos=3, neg=1, io=1):
    rng = np.random.default_rng(seed)
    return random_conservative_colligation(rng, SignatureSpace(pos, neg), io)


class TestCertify:
    def test_passes_at_the_bound_and_returns_the_value(self):
        assert certify("residual", 1e-8, 1e-8) == 1e-8
        assert certify("residual", 0.0, 1e-8) == 0.0

    def test_raises_just_above_the_bound(self):
        with pytest.raises(InternalConsistencyError):
            certify("residual", np.nextafter(1e-8, 1.0), 1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_raises_on_nan_and_inf(self, value):
        with pytest.raises(InternalConsistencyError):
            certify("residual", value, 1e-8)

    def test_lower_bound_through_negation(self):
        assert certify("eigenvalue", -1e-9, -1e-10) == -1e-9
        with pytest.raises(InternalConsistencyError):
            certify("eigenvalue", -1e-11, -1e-10)

    def test_message_names_value_and_bound(self):
        with pytest.raises(InternalConsistencyError) as info:
            certify("cascade reconstruction residual", 2.5e-6, 1e-8)
        assert str(info.value) == ("cascade reconstruction residual: 2.500e-06 "
                                   "exceeds the bound 1.000e-08")


class TestFrobeniusKernel:
    """_fro, the one BLAS dot behind every Frobenius norm, against
    np.linalg.norm: within 2 size u relative on finite input, u the unit
    roundoff, and the same value on non-finite and overflowing input."""

    @staticmethod
    def layouts(M):
        """M in C and F order and as strided views of larger arrays."""
        big = np.zeros((2 * M.shape[0], 3 * M.shape[1]), dtype=M.dtype)
        big[::2, ::3] = M
        flipped = np.ascontiguousarray(M[::-1, ::-1])
        return [M, np.asfortranarray(M), big[::2, ::3], flipped[::-1, ::-1], M.T]

    @pytest.mark.parametrize("scale", [1e-150, 1e-5, 1.0, 1e5, 1e150])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_numpy_within_rounding(self, scale, kind):
        rng = np.random.default_rng([int(np.log10(scale)) + 200, kind == "complex"])
        u = np.finfo(float).eps / 2
        for shape in [(1, 1), (3, 1), (1, 4), (5, 5), (8, 3), (17, 40), (50, 50)]:
            M = rng.standard_normal(shape)
            if kind == "complex":
                M = M + 1j * rng.standard_normal(shape)
            for X in self.layouts(scale * M):
                want = np.linalg.norm(X)
                got = _fro(X)
                assert type(got) is float
                assert abs(got - want) <= 2 * X.size * u * want
        assert _fro(np.arange(5.0)) == np.linalg.norm(np.arange(5.0))

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_is_zero(self, shape, dtype):
        assert _fro(np.zeros(shape, dtype=dtype)) == 0.0

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-200,
                                       complex(np.inf, 0.0), complex(0.0, -np.inf),
                                       complex(np.inf, np.inf), complex(np.nan, 1.0),
                                       complex(1e200, 1e200), complex(1e-200, 0.0)])
    def test_non_finite_and_overflow_as_numpy(self, entry):
        # np.vdot would turn an infinite complex entry into NaN
        for dtype in ([complex] if isinstance(entry, complex) else [float, complex]):
            M = np.ones((4, 3), dtype=dtype)
            M[2, 1] = entry
            for X in self.layouts(M):
                # both dots raise the same overflow warning on 1e200
                with np.errstate(over="ignore"):
                    want, got = float(np.linalg.norm(X)), _fro(X)
                assert got == want or (np.isnan(got) and np.isnan(want)), (X, got, want)
        tiny = np.full((3, 3), 1e-200, dtype=complex)
        assert _fro(tiny) == np.linalg.norm(tiny) == 0.0


class TestLazyCertificates:
    """The scale of a bound, and the spectral norm of a residual nobody
    reads, are computed only where they can change the verdict."""

    def test_scale_is_not_computed_within_the_bound(self):
        def scale():
            raise AssertionError("scale computed")

        assert _certify_scaled("residual", 1e-8, 1e-8, scale) == 1e-8
        assert _certify_scaled("residual", 0.0, 1e-8, scale) == 0.0

    def test_between_the_bounds_passes_above_names_the_scaled_bound(self):
        assert _certify_scaled("residual", 3e-8, 1e-8, lambda: 4.0) == 3e-8
        assert _certify_scaled("residual", 4e-8, 1e-8, lambda: 4.0) == 4e-8
        with pytest.raises(InternalConsistencyError) as info:
            _certify_scaled("residual", 5e-8, 1e-8, lambda: 4.0)
        assert str(info.value) == "residual: 5.000e-08 exceeds the bound 4.000e-08"
        with pytest.raises(InternalConsistencyError):
            _certify_scaled("residual", np.nan, 1e-8, lambda: 4.0)

    def test_frobenius_within_the_bound_skips_the_svd(self, monkeypatch):
        grams = spy(monkeypatch, _gram_eigenvalues)
        _certify_residual("residual", np.diag([0.6e-8, 0.6e-8]), 1e-8)
        assert grams == []

    def test_the_spectral_norm_decides_above_the_frobenius_bound(self, monkeypatch):
        # _norm2 reads one Gram of a one-matrix stack per norm
        grams = spy(monkeypatch, _gram_eigenvalues)
        # ||R||_F = 1.13e-8 > 1e-8 >= ||R||_2 = 0.8e-8
        _certify_residual("residual", np.diag([0.8e-8, 0.8e-8]), 1e-8)
        # rank one on the bound: the two norms coincide
        _certify_residual("residual", np.diag([1e-8, 0.0]), 1e-8)
        assert [args[0].shape for args in grams] == [(1, 2, 2)] * 2
        with pytest.raises(InternalConsistencyError) as info:
            _certify_residual("residual", np.diag([2e-8, 1e-9]), 1e-8)
        assert str(info.value) == "residual: 2.000e-08 exceeds the bound 1.000e-08"
        with pytest.raises(InternalConsistencyError) as info:
            _certify_residual("residual", np.diag([2e-8, 1e-9]), 1e-8, lambda: 1.5)
        assert str(info.value) == "residual: 2.000e-08 exceeds the bound 1.500e-08"

    def test_returns_the_value_it_certified(self, monkeypatch):
        # the Frobenius norm where it passes, the spectral norm above it,
        # bit for bit; a single row or column takes the same gate, and its
        # Frobenius norm is its spectral norm to a few ulps
        rng = np.random.default_rng(7)
        R = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        fro, two = _fro(R), _norm2(R)
        assert fro > two
        grams = spy(monkeypatch, _gram_eigenvalues)
        assert _certify_residual("residual", R, 1.5 * fro) == fro
        assert _residual_norm(R, 1.5 * fro) == fro
        assert grams == []
        assert _certify_residual("residual", R, fro) == two
        assert _residual_norm(R, fro) == two
        assert len(grams) == 2
        for M in (R[:, :1], R[:1]):
            assert _residual_norm(M, 2.0 * _fro(M)) == _fro(M)
            assert abs(_fro(M) - _norm2(M)) <= 4 * np.finfo(float).eps * _fro(M)
            assert _residual_norm(M, _fro(M)) == _norm2(M)
        assert _residual_norm(np.zeros((0, 3)), 1e-8) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (1, 40), (40, 1)])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_one_row_or_column_takes_no_svd(self, monkeypatch, shape, scale):
        # the Euclidean norm is the one singular value, within a few ulps of
        # the SVD's, with no square overflowing or underflowing, and with no
        # SVD and no eigen-solve
        rng = np.random.default_rng([shape[0], shape[1], 3])
        cases = [scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(20)]
        cases.append(scale * rng.standard_normal(shape))
        want = [np.linalg.norm(M, 2) for M in cases]
        svd = spy_attr(monkeypatch, np.linalg, "svd")
        eigvalsh = spy_attr(monkeypatch, np.linalg, "eigvalsh")
        for M, w in zip(cases, want):
            assert abs(_norm2(M) - w) <= 8 * np.finfo(float).eps * w
        assert _norm2(np.zeros(shape)) == 0.0
        assert svd == eigvalsh == []

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_norm_is_zero(self, shape):
        assert _norm2(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_is_nan(self, shape, bad):
        M = np.ones(shape, dtype=complex)
        M[-1, -1] = bad
        assert np.isnan(_norm2(M))

    def test_nan_residual_fails_its_certificate(self):
        # a NaN residual has a NaN spectral norm, which fails every bound
        R = np.full((2, 2), np.nan)
        with pytest.raises(InternalConsistencyError):
            _certify_residual("residual", R, 1e-8)
        system = conservative_system(pos=2, neg=0)
        residuals = colligation._intertwining_residuals(system, system, R, 1e-8)
        # D does not meet Z
        assert all(np.isnan(residuals[key]) for key in "ABC")
        with pytest.raises(InternalConsistencyError):
            _certify_scaled("Krylov map intertwining residual",
                            np.max(list(residuals.values())), 1e-8, lambda: 1.0)


class TestGramEigenvalues:
    """The one route to singular values read as norms, against the
    stacked SVD and np.linalg.norm(M, 2): every shape, closed form or
    eigen-solve, at scales whose squares would underflow or overflow."""

    SHAPES = [(0, 4), (4, 0), (1, 7), (7, 1), (2, 2), (2, 5), (3, 3), (5, 3), (40, 40)]
    SCALES = [1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_against_the_svd(self, shape, kind):
        rng = np.random.default_rng([shape[0], shape[1], 45])
        draw = ((lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                if kind == "complex" else lambda: rng.standard_normal(shape))
        stack = np.array([scale * draw() for scale in self.SCALES for _ in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, scale = _gram_eigenvalues(stack)
            norms = _spectral_norms(stack)
            single = [_norm2(M) for M in stack]
        assert w.shape == (stack.shape[0], min(shape)) and np.all(np.diff(w, axis=1) >= 0)
        want = np.linalg.norm(stack, 2, axis=(1, 2)) if stack.size else np.zeros(len(stack))
        eps = np.finfo(float).eps
        assert np.all(np.abs(norms - want) <= 32 * eps * want)
        assert single == norms.tolist()
        if not min(shape):
            return
        # each scale is the power of two just above the largest entry
        peak = np.abs(stack).max(axis=(1, 2)) / scale
        assert np.all((0.5 <= peak) & (peak < 1.0))
        assert np.array_equal(scale, np.ldexp(1.0, np.frexp(scale)[1] - 1))
        s = np.linalg.svd(stack, compute_uv=False)[:, ::-1] / scale[:, None]
        assert np.all(np.abs(w - s * s) <= 64 * eps * w[:, -1:])

    def test_entries_near_the_float_maximum(self):
        # the scale stops at 2^1023, so an entry past it keeps a finite norm
        big = np.finfo(float).max
        cases = [np.array([[big]]), np.diag([1e308, 1.0]), np.array([[1e308], [1e-300]]),
                 np.array([[big, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [_norm2(M) for M in cases]
        want = [np.linalg.norm(M, 2) for M in cases]
        assert np.all(np.abs(np.subtract(got, want)) <= 8 * np.finfo(float).eps * np.array(want))

    @pytest.mark.parametrize("shape", SHAPES[2:])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                                     complex(1.0, -np.inf)])
    def test_non_finite_matrix_is_nan_without_warning(self, shape, bad):
        stacks = [np.ones((3,) + shape, dtype=complex)]
        if not np.iscomplexobj(bad):
            stacks.append(np.ones((3,) + shape))
        for stack in stacks:
            stack[1, -1, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, scale = _gram_eigenvalues(stack)
                norms = _spectral_norms(stack)
                one = _norm2(stack[1])
            assert np.isnan(w[1]).all() and np.isnan(norms[1]) and np.isnan(one)
            assert np.isfinite(w[[0, 2]]).all()
            assert norms[0] == norms[2] == pytest.approx(math.sqrt(shape[0] * shape[1]),
                                                         rel=1e-14)


def _plant(monkeypatch, module, attr, target, value):
    """Certify value in place of what the site computes for the
    certificate named target; every other certificate is left alone."""
    real = getattr(module, attr)

    def planted(name, computed, *rest):
        return real(name, value if name == target else computed, *rest)

    monkeypatch.setattr(module, attr, planted)


def _weak_pair():
    """A conservative system and its image under a state change near I."""
    rng = np.random.default_rng(11)
    sys1 = random_conservative_colligation(rng, SignatureSpace(6, 3), 2)
    return sys1, state_change(sys1, np.eye(9) + 0.05 * rng.standard_normal((9, 9)),
                              sys1.state)


class TestLazyScaleSites:
    """At each site a residual between the unscaled bound k and the full
    bound k * max(1, ||X||_2) passes, and one above fails with the
    message of the certificate stated with the full bound."""

    def check(self, monkeypatch, module, attr, name, k, full, run, wrap=float):
        assert full > 1.5 * k
        _plant(monkeypatch, module, attr, name, wrap((k + full) / 2.0))
        run()
        monkeypatch.undo()
        above = 2.0 * full
        _plant(monkeypatch, module, attr, name, wrap(above))
        with pytest.raises(InternalConsistencyError, match=re.escape(
                f"{name}: {above:.3e} exceeds the bound {full:.3e}")):
            run()

    def test_invariance_residual(self, monkeypatch):
        system = conservative_system(seed=2, pos=6, neg=3, io=2)
        full = 1e-9 * max(1.0, float(np.linalg.norm(system.A, 2)))
        self.check(monkeypatch, products, "_certify_residual", "invariance residual",
                   1e-9, full, lambda: invariant_fundamental_decompositions(system),
                   wrap=lambda v: np.array([[v, 0.0], [0.0, 0.0]]))

    def test_cascade_reconstruction_residual(self, monkeypatch):
        system = conservative_system(seed=2, pos=6, neg=3, io=2)
        full = 1e-8 * max(1.0, *(float(np.linalg.norm(X, 2)) for X in (
            system.A, system.B, system.C, system.D)))
        self.check(monkeypatch, products, "_certify_scaled",
                   "cascade reconstruction residual", 1e-8, full,
                   lambda: kl_factorize_system(system, "right"))

    def test_defect_range_intertwining_residual(self, monkeypatch):
        sp = SignatureSpace(3, 2)
        M = random_j_contraction(np.random.default_rng(0), sp, sp, strict=0.1)
        k = 1e3 * DEFAULT_TOL.rank_tol
        full = k * max(1.0, float(np.linalg.norm(M, 2)) ** 2)
        self.check(monkeypatch, julia, "_certify_residual",
                   "defect range intertwining residual", k, full,
                   lambda: julia.julia_operator(M, sp, sp),
                   wrap=lambda v: np.array([[v, 0.0], [0.0, 0.0]]))

    def test_krylov_map_intertwining_residual(self, monkeypatch):
        sys1, sys2 = _weak_pair()
        Z = weak_similarity(sys1, sys2).Z
        k = 1e-8 * max(1.0, float(np.linalg.norm(Z, 2)))
        full = k * max(1.0, float(np.linalg.norm(sys1.A, 2)))
        self.check(monkeypatch, colligation, "_certify_scaled",
                   "Krylov map intertwining residual", k, full,
                   lambda: weak_similarity(sys1, sys2))


def _plant_block(monkeypatch, module, index, M):
    """Hand M to module._residual_norm in place of the residual block it
    is given at the index-th call; returns the list of blocks it saw."""
    real = module._residual_norm
    seen = []

    def planted(R, bound):
        seen.append(R)
        return real(M if len(seen) == index + 1 else R, bound)

    monkeypatch.setattr(module, "_residual_norm", planted)
    return seen


def _spread(k):
    """A residual at 0.8 k whose Frobenius norm, 1.22 k, misses the bound k."""
    M = k * np.diag([0.8, 0.7, 0.6])
    assert np.linalg.norm(M) > k >= _norm2(M)
    return M


class TestFrobeniusMisses:
    """At each site that decides a residual on its Frobenius norm first, a
    residual whose Frobenius norm misses the bound while its spectral norm
    meets it passes and returns the spectral norm bit for bit, and one
    above the full bound fails as it did with the spectral norm alone."""

    def test_invariance_residual(self, monkeypatch):
        system = conservative_system(seed=2, pos=6, neg=3, io=2)
        M = _spread(1e-9)
        _plant(monkeypatch, products, "_certify_residual", "invariance residual", M)
        for split in invariant_fundamental_decompositions(system):
            assert split.invariance_residual == _norm2(M)
        monkeypatch.undo()
        full = 1e-9 * max(1.0, float(np.linalg.norm(system.A, 2)))
        _plant(monkeypatch, products, "_certify_residual", "invariance residual",
               np.diag([2.0 * full, full]))
        with pytest.raises(InternalConsistencyError, match=re.escape(
                f"invariance residual: {2.0 * full:.3e} exceeds the bound {full:.3e}")):
            invariant_fundamental_decompositions(system)

    @pytest.mark.parametrize("mode", ["right", "left"])
    @pytest.mark.parametrize("block", range(4))
    def test_cascade_reconstruction_block(self, monkeypatch, mode, block):
        system = conservative_system(seed=2, pos=6, neg=3, io=2)
        M = _spread(1e-8)
        seen = _plant_block(monkeypatch, products, block, M)
        assert kl_factorize_system(system, mode).reconstruction_residual == _norm2(M)
        assert len(seen) == 4
        monkeypatch.undo()
        full = 1e-8 * max(1.0, *(float(np.linalg.norm(X, 2)) for X in (
            system.A, system.B, system.C, system.D)))
        _plant_block(monkeypatch, products, block, np.diag([2.0 * full, full]))
        with pytest.raises(InternalConsistencyError, match=re.escape(
                f"cascade reconstruction residual: {2.0 * full:.3e} exceeds "
                f"the bound {full:.3e}")):
            kl_factorize_system(system, mode)

    @pytest.mark.parametrize("block", range(4))
    def test_weak_intertwining_block(self, monkeypatch, block):
        sys1, sys2 = _weak_pair()
        k = 1e-8 * max(1.0, float(np.linalg.norm(weak_similarity(sys1, sys2).Z, 2)))
        M = _spread(k)
        seen = _plant_block(monkeypatch, colligation, block, M)
        assert weak_similarity(sys1, sys2).residuals["ABCD"[block]] == _norm2(M)
        assert len(seen) == 4
        monkeypatch.undo()
        full = k * max(1.0, float(np.linalg.norm(sys1.A, 2)))
        _plant_block(monkeypatch, colligation, block, np.diag([2.0 * full, full]))
        with pytest.raises(InternalConsistencyError, match=re.escape(
                f"Krylov map intertwining residual: {2.0 * full:.3e} exceeds "
                f"the bound {full:.3e}")):
            weak_similarity(sys1, sys2)

    @pytest.mark.parametrize("block", range(4))
    def test_unitary_intertwining_block(self, monkeypatch, block):
        # a sign-preserving unitary state change: |Z|_2 = 1, so the bound
        # is 100 metric_tol
        rng = np.random.default_rng(13)
        sys1 = conservative_system(seed=2, pos=6, neg=3, io=2)
        U = scipy.linalg.block_diag(random_unitary(rng, 6), random_unitary(rng, 3))
        sys2 = state_change(sys1, U, sys1.state)
        k = 100 * DEFAULT_TOL.metric_tol
        M = _spread(k)
        # the first residual is the feedthrough difference, checked before
        # the state map is built
        seen = _plant_block(monkeypatch, colligation, block + 1, M)
        assert unitary_similarity(sys1, sys2).residuals["ABCD"[block]] == _norm2(M)
        assert len(seen) == 5
        monkeypatch.undo()
        full = k * max(1.0, float(np.linalg.norm(unitary_similarity(sys1, sys2).Z, 2)))
        _plant_block(monkeypatch, colligation, block + 1, np.diag([2.0 * full, full]))
        assert unitary_similarity(sys1, sys2) is None


def _scaled_completion(monkeypatch):
    real = products._schur_complement
    monkeypatch.setattr(products, "_schur_complement",
                        lambda *args: tuple(M * (1.0 + 1e-6) for M in real(*args)))


class TestLayersRefuse:
    @pytest.mark.parametrize("mode", ["right", "left"])
    def test_products_cascade_reconstruction(self, monkeypatch, mode):
        system = conservative_system()
        kl_factorize_system(system, mode)
        _scaled_completion(monkeypatch)
        with pytest.raises(InternalConsistencyError,
                           match="cascade reconstruction residual"):
            kl_factorize_system(system, mode)

    def test_colligation_krylov_map_intertwining(self, monkeypatch):
        rng = np.random.default_rng(11)
        sys1 = random_conservative_colligation(rng, SignatureSpace(3, 1), 1)
        sys2 = state_change(sys1, np.eye(4) + 0.05 * rng.standard_normal((4, 4)),
                            sys1.state)
        weak_similarity(sys1, sys2)
        real = colligation._krylov_map
        monkeypatch.setattr(colligation, "_krylov_map",
                            lambda *args: real(*args) + 1e-6)
        with pytest.raises(InternalConsistencyError,
                           match="Krylov map intertwining residual"):
            weak_similarity(sys1, sys2)

    def test_julia_defect_range_intertwining(self, monkeypatch):
        # a partial isometry in its first coordinate: both defects have
        # rank one, so the corner equation has a range to leave
        M = np.diag([1.0, 0.5])
        julia.julia_operator(M, [1, 1], [1, 1])
        real = julia._defect_factors

        def shifted(*args):
            primal, dual, left = real(*args)
            return primal, dual + 1e-6, left

        monkeypatch.setattr(julia, "_defect_factors", shifted)
        with pytest.raises(InternalConsistencyError,
                           match="defect range intertwining residual"):
            julia.julia_operator(M, [1, 1], [1, 1])

    def test_schur_factor_reconstruction(self, monkeypatch):
        # the Schur factor scaled by 1 - 1e-6 stays contractive on the
        # circle, so only the reconstruction sees it
        system = conservative_system()
        kl_factorize_function(system)
        real = schur._peel

        def scaled(*args):
            (T, B, C, D), inner = real(*args)
            return (T, B, C * (1.0 - 1e-6), D * (1.0 - 1e-6)), inner

        monkeypatch.setattr(schur, "_peel", scaled)
        with pytest.raises(InternalConsistencyError,
                           match="factor reconstruction"):
            kl_factorize_function(system)


class TestWeakSimilarityContract:
    """Passive pairs similar by construction, x2 = Z x1 for a mild Z: a
    weak similarity either recovers the planted map or refuses, typed."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_answer_holds_the_planted_map_or_refusal_is_typed(self, n, seed):
        rng = np.random.default_rng([n, seed, 31])
        s1 = random_passive_colligation(rng, SignatureSpace(n - n // 5, n // 5), 2, 2,
                                        strict=0.35)
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z = np.eye(n) + 0.05 * R / max(1.0, np.linalg.norm(R, 2))
        try:
            res = weak_similarity(s1, state_change(s1, Z, s1.state))
        except PontsysError:
            return
        assert np.linalg.norm(res.Z - Z, 2) <= 1e-6 * np.linalg.norm(Z, 2)


class TestCliExitCodeOne:
    def test_factor_kl_failed_certificate(self, tmp_path, monkeypatch, capsys):
        path = save_system(conservative_system(), tmp_path / "in" / "system.json")
        out = tmp_path / "out"
        _scaled_completion(monkeypatch)
        assert main(["--out", str(out), "factor-kl", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InternalConsistencyError"
        assert "cascade reconstruction residual" in err["reason"]
        assert not out.exists() or not any(out.iterdir())

    def test_realize_failed_certificate(self, tmp_path, monkeypatch, capsys):
        sys1 = blaschke_system(0.5)
        doc = {"coefficients": [[[[complex(c[0, 0]).real, complex(c[0, 0]).imag]]]
                                for c in (markov(sys1, k) for k in range(8))]}
        path = tmp_path / "taylor.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        real = cli._taylor_stack
        monkeypatch.setattr(cli, "_taylor_stack", lambda *args: real(*args) + 1e-6)
        assert main(["--out", str(out), "realize", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InternalConsistencyError"
        assert "realization coefficient window mismatch" in err["reason"]
        assert not out.exists() or not any(out.iterdir())
