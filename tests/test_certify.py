"""The failure half of the certificate contract.

Every numeric certificate goes through exceptions.certify, so a residual
above its bound, or a NaN one, ends in InternalConsistencyError naming
the certificate, and the CLI maps that error to exit code 1.  Each layer
is driven to a failing certificate by perturbing the private step that
feeds it.
"""

import json
import re

import numpy as np
import pytest

from _builders import blaschke_system, spectral_norms, spy_attr
from pontsys import cli, colligation, julia, products, schur
from pontsys.cli import main, save_system
from pontsys.colligation import (
    Colligation,
    markov,
    state_change,
    weak_similarity,
)
from pontsys.exceptions import (
    InternalConsistencyError,
    _certify_residual,
    _certify_scaled,
    certify,
)
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace
from pontsys.products import invariant_fundamental_decompositions, kl_factorize_system
from pontsys.sampling import random_conservative_colligation, random_j_contraction
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
        calls = spy_attr(monkeypatch, np.linalg, "norm")
        _certify_residual("residual", np.diag([0.6e-8, 0.6e-8]), 1e-8)
        assert spectral_norms(calls) == []

    def test_the_spectral_norm_decides_above_the_frobenius_bound(self, monkeypatch):
        calls = spy_attr(monkeypatch, np.linalg, "norm")
        # ||R||_F = 1.13e-8 > 1e-8 >= ||R||_2 = 0.8e-8
        _certify_residual("residual", np.diag([0.8e-8, 0.8e-8]), 1e-8)
        # rank one on the bound: the two norms coincide
        _certify_residual("residual", np.diag([1e-8, 0.0]), 1e-8)
        assert len(spectral_norms(calls)) == 2
        with pytest.raises(InternalConsistencyError) as info:
            _certify_residual("residual", np.diag([2e-8, 1e-9]), 1e-8)
        assert str(info.value) == "residual: 2.000e-08 exceeds the bound 1.000e-08"
        with pytest.raises(InternalConsistencyError) as info:
            _certify_residual("residual", np.diag([2e-8, 1e-9]), 1e-8, lambda: 1.5)
        assert str(info.value) == "residual: 2.000e-08 exceeds the bound 1.500e-08"

    def test_nan_residual_fails_its_certificate(self):
        # the SVD behind a spectral norm raises LinAlgError on NaN entries
        R = np.full((2, 2), np.nan)
        with pytest.raises(InternalConsistencyError):
            _certify_residual("residual", R, 1e-8)
        system = conservative_system(pos=2, neg=0)
        residuals = colligation._intertwining_residuals(system, system, R)
        with pytest.raises(InternalConsistencyError):
            _certify_scaled("Krylov map intertwining residual",
                            np.max(list(residuals.values())), 1e-8, lambda: 1.0)


def _plant(monkeypatch, module, attr, target, value):
    """Certify value in place of what the site computes for the
    certificate named target; every other certificate is left alone."""
    real = getattr(module, attr)

    def planted(name, computed, *rest):
        return real(name, value if name == target else computed, *rest)

    monkeypatch.setattr(module, attr, planted)


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
        self.check(monkeypatch, products, "_certify_scaled", "invariance residual",
                   1e-9, full, lambda: invariant_fundamental_decompositions(system))

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
        rng = np.random.default_rng(11)
        sys1 = random_conservative_colligation(rng, SignatureSpace(6, 3), 2)
        sys2 = state_change(sys1, np.eye(9) + 0.05 * rng.standard_normal((9, 9)),
                            sys1.state)
        Z = weak_similarity(sys1, sys2).Z
        k = 1e-8 * max(1.0, float(np.linalg.norm(Z, 2)))
        full = k * max(1.0, float(np.linalg.norm(sys1.A, 2)))
        self.check(monkeypatch, colligation, "_certify_scaled",
                   "Krylov map intertwining residual", k, full,
                   lambda: weak_similarity(sys1, sys2))


def _scaled_completion(monkeypatch):
    real = products._j_orthonormal_completion
    monkeypatch.setattr(products, "_j_orthonormal_completion",
                        lambda *args: real(*args) * (1.0 + 1e-6))


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
            primal, dual = real(*args)
            return primal, dual + 1e-6

        monkeypatch.setattr(julia, "_defect_factors", shifted)
        with pytest.raises(InternalConsistencyError,
                           match="defect range intertwining residual"):
            julia.julia_operator(M, [1, 1], [1, 1])

    def test_schur_factor_reconstruction(self, monkeypatch):
        system = conservative_system()
        kl_factorize_function(system)
        real = schur._invert_system

        def scaled(*args, **kwargs):
            out = real(*args, **kwargs)
            return Colligation(out.state, out.input_dim, out.output_dim,
                               out.A, out.B, out.C, out.D * (1.0 + 1e-6))

        monkeypatch.setattr(schur, "_invert_system", scaled)
        with pytest.raises(InternalConsistencyError,
                           match="factor reconstruction"):
            kl_factorize_function(system)


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
