"""The failure half of the certificate contract.

Every numeric certificate goes through exceptions.certify, so a residual
above its bound, or a NaN one, ends in InternalConsistencyError naming
the certificate, and the CLI maps that error to exit code 1.  Each layer
is driven to a failing certificate by perturbing the private step that
feeds it.
"""

import json

import numpy as np
import pytest

from _builders import blaschke_system
from pontsys import cli, colligation, julia, products, schur
from pontsys.cli import main, save_system
from pontsys.colligation import (
    Colligation,
    markov,
    state_change,
    weak_similarity,
)
from pontsys.exceptions import InternalConsistencyError, certify
from pontsys.indefinite import SignatureSpace
from pontsys.products import kl_factorize_system
from pontsys.sampling import random_conservative_colligation
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
        real = julia.defect_operators

        def shifted(*args):
            primal, dual = real(*args)
            return primal, dual + 1e-6

        monkeypatch.setattr(julia, "defect_operators", shifted)
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
        real = cli.markov
        monkeypatch.setattr(cli, "markov", lambda *args: real(*args) + 1e-6)
        assert main(["--out", str(out), "realize", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InternalConsistencyError"
        assert "realization coefficient window mismatch" in err["reason"]
        assert not out.exists() or not any(out.iterdir())
