"""Seeded job streams for the four benchmark workloads.

A workload is a fixed cycle of strata.  Job i belongs to stratum
``cycle[i % len(cycle)]`` and draws its random entries from the seed and
its own index, so every job is a fresh instance while the mix of sizes in
any run of whole cycles stays the same from seed to seed.  Jobs that name
the same ``slot`` within one cycle share one instance, so one function can
be queried by several calls.

Every job carries its reference outcome from the construction: the
planted negative index, zeros, state map or obstruction dimension.  The
input families copy the construction of the acceptance suite rather than
importing ``tests/``, so edits to the tests cannot move the benchmark.
Program functions are looked up as module attributes at call time, which
lets the tracer see every call made by a job.
"""

import contextlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

import refs
from pontsys import cli, colligation, julia, products, sampling, schur
from pontsys.indefinite import SignatureSpace


class Job:
    """One certified answer: ``run`` is timed, ``check`` is not.

    ``check`` takes what ``run`` returned and lists every disagreement
    with the reference; an empty list means the answer is correct.
    """

    __slots__ = ("kind", "run", "check", "cleanup")

    def __init__(self, kind, run, check, cleanup=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.cleanup = cleanup


class Abstained(Exception):
    """The program returned without an answer (an inconclusive verdict)."""


def _estimate(est, name="negative squares"):
    if est.estimate is None:
        raise Abstained(f"{name}: verdict {est.verdict}, history {est.history}")
    return est.estimate


def _expect(bad, name, got, want):
    if got != want:
        bad.append(f"{name}: got {got!r}, reference {want!r}")


def _bound(bad, name, value, limit):
    if not value <= limit:
        bad.append(f"{name}: {value:.3e} exceeds {limit:.0e}")


class Workload:
    """Cycle of strata, and the job at each index."""

    name = ""
    cycle = ()
    bytes_written = 0
    # whole cycles a run measures for each second of --seconds: the wall
    # rate of the loop (jobs, input generation, checks and host probes) on
    # a 2-vCPU Intel Xeon with one BLAS thread
    cycles_per_second = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def make(self, index):
        entry = self.cycle[index % len(self.cycle)]
        slot = entry[0]
        rng = np.random.default_rng([self.seed, index // len(self.cycle), slot])
        return self.build(rng, *entry[1:])

    def warmup(self):
        """A job of the first stratum drawn from a stream no timed job uses."""
        entry = self.cycle[0]
        rng = np.random.default_rng([self.seed, 1 << 40, entry[0]])
        return self.build(rng, *entry[1:])

    def build(self, rng, *params):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# construction shared with the acceptance families


def _separated_points(rng, count, taken, lo, hi, gap=0.08):
    """Disc points with modulus in [lo, hi], pairwise separated and apart
    from every point already in ``taken``."""
    pts = []
    while len(pts) < count:
        z = (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - w) >= gap for w in list(taken) + pts):
            pts.append(complex(z))
    return pts


def _identity(dim):
    return colligation.Colligation(SignatureSpace(0, 0), dim, dim,
                                   np.zeros((0, 0)), np.zeros((0, dim)),
                                   np.zeros((dim, 0)), np.eye(dim))


def _scalar_inner(rng, zeros):
    """Scalar finite Blaschke product with the given zeros."""
    if not zeros:
        return _identity(1)
    return schur.blaschke_product([
        schur.blaschke_potapov_factor(a, np.exp(2j * np.pi * rng.random()), [1.0], 1)
        for a in zeros])


def _scalar_inverse_blaschke(zeros):
    """Conservative negative-state realization of 1 / (Blaschke product)."""
    sys = None
    for b in zeros:
        f = schur.invert_system(schur.blaschke_potapov_factor(b, 1.0, [1.0], 1))
        sys = f if sys is None else products.cascade(sys, f)
    return sys


def _mixed_scalar(rng, kappa, inner_deg):
    """(inner product of degree inner_deg) / (Blaschke product of degree kappa)."""
    betas = _separated_points(rng, kappa, [], lo=0.3, hi=0.7)
    alphas = _separated_points(rng, inner_deg, betas, lo=0.0, hi=0.7)
    inv = _scalar_inverse_blaschke(betas)
    sys = inv if inner_deg == 0 else products.cascade(_scalar_inner(rng, alphas), inv)
    return sys, betas, alphas


def _random_system(rng, kind, n, kappa, io):
    state = SignatureSpace(n - kappa, kappa)
    if kind == "C":
        return sampling.random_conservative_colligation(rng, state, io)
    return sampling.random_passive_colligation(rng, state, io, io, strict=0.2)


def _outer_errors(bad, name, rat, system, circle):
    """|rat|^2 must match 1 - |S|^2 on the circle with no roots in the disc."""
    if rat is None:
        bad.append(f"{name}: missing outer factor for a nonvanishing defect")
        return
    poly = np.polynomial.polynomial.polyval
    worst = 0.0
    for z in circle:
        target = 1.0 - abs(complex(refs.tf(system, z)[0, 0])) ** 2
        val = poly(z, rat.numerator) / poly(z, rat.denominator)
        worst = max(worst, abs(abs(val) ** 2 - target))
    _bound(bad, f"{name} boundary match", worst, 1e-7)
    for part, coeffs in (("numerator", rat.numerator), ("denominator", rat.denominator)):
        coeffs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
        if coeffs.size > 1:
            inside = float(np.min(np.abs(np.roots(coeffs[::-1]))))
            if inside < 1.0 - 1e-8:
                bad.append(f"{name} {part} has a root of modulus {inside:.3e}")


# ---------------------------------------------------------------------------
# scalar_factor


class ScalarFactor(Workload):
    """Scalar functions, n <= 6, kappa 1-3: the per-point overhead regime."""

    name = "scalar_factor"
    cycles_per_second = 0.5
    _order = [(1, 0), (2, 1), (3, 2), 1, (1, 3), (2, 0), (3, 1), 2,
              (1, 2), (2, 3), (3, 0), 3, (1, 1), (2, 2), (3, 3), 4, 5]
    cycle = tuple((slot, "factor", e) if isinstance(e, tuple) else (slot, "defect", e)
                  for slot, e in enumerate(_order))

    def build(self, rng, kind, param):
        if kind == "factor":
            return self._factor(rng, *param)
        return self._defect(rng, param)

    def _factor(self, rng, kappa, inner_deg):
        system, betas, alphas = _mixed_scalar(rng, kappa, inner_deg)
        held = refs.disc_samples(rng, 4, avoid=betas + alphas, gap=1e-2)

        def run():
            S = schur.as_transfer(system)
            res = schur.kl_factorize_function(S)
            nsq = schur.negative_squares_estimate
            return (res, nsq(S), nsq(res.schur_right), nsq(res.schur_left),
                    schur.boundary_behavior(res.schur_right),
                    schur.boundary_behavior(res.schur_left), schur.defect(S))

        def check(out):
            res, est, est_r, est_l, bnd_r, bnd_l, dft = out
            bad = []
            _expect(bad, "kappa", res.kappa, kappa)
            _expect(bad, "negative squares", _estimate(est), kappa)
            _expect(bad, "right factor negative squares", _estimate(est_r), 0)
            _expect(bad, "left factor negative squares", _estimate(est_l), 0)
            for side, B in (("right", res.blaschke_right), ("left", res.blaschke_left)):
                _expect(bad, f"{side} Blaschke degree", B.backing.state_dim, kappa)
                if B.backing.state_dim == kappa and kappa:
                    gap = max(abs(complex(refs.tf(B.backing, b)[0, 0])) for b in betas)
                    _bound(bad, f"{side} Blaschke value at a planted zero", gap, 1e-8)
            worst = 0.0
            for z in held:
                want = refs.tf(system, z)
                right = refs.tf(res.schur_right.backing, z) @ np.linalg.inv(
                    refs.tf(res.blaschke_right.backing, z))
                left = np.linalg.solve(refs.tf(res.blaschke_left.backing, z),
                                       refs.tf(res.schur_left.backing, z))
                worst = max(worst, refs.rel_err(right, want), refs.rel_err(left, want))
            _bound(bad, "reconstruction at held-out points", worst, 1e-7)
            # S is unimodular on the circle, so both Schur factors are inner
            # and both defect functions vanish
            for side, bnd in (("right", bnd_r), ("left", bnd_l)):
                _expect(bad, f"{side} factor inner", (bnd.contractive, bnd.inner, bnd.co_inner),
                        (True, True, True))
            _expect(bad, "defects vanish", (dft.phi_is_zero, dft.psi_is_zero), (True, True))
            return bad

        return Job("factor", run, check)

    def _defect(self, rng, npos):
        system = sampling.random_passive_colligation(
            rng, SignatureSpace(npos, 0), 1, 1, strict=0.35)
        circle = refs.circle_samples(rng, 16)

        def run():
            return schur.defect(schur.as_transfer(system))

        def check(res):
            bad = []
            _expect(bad, "defects vanish", (res.phi_is_zero, res.psi_is_zero), (False, False))
            _outer_errors(bad, "phi", res.phi, system, circle)
            _outer_errors(bad, "psi", res.psi, system, circle)
            return bad

        return Job("defect", run, check)


# ---------------------------------------------------------------------------
# matrix_kernel


class MatrixKernel(Workload):
    """Matrix functions, p = m = 2-3, n = 12-40, kappa 3-8: the Gram regime."""

    name = "matrix_kernel"
    cycles_per_second = 0.1
    # (n, kappa, p, kind); C is conservative, P strictly passive.  Each
    # stratum takes the same number of doubling stages and sample plans
    # for every seed, so its cost does not jump between runs; the mix puts
    # the median on the smallest canonical realization and p75 on the
    # kappa = 6-8 ones.  (40, 8, 2, C) keeps the known saturation defect.
    _instances = [(12, 3, 3, "C"), (16, 3, 3, "P"), (20, 5, 3, "C"), (24, 6, 2, "P"),
                  (28, 6, 2, "C"), (32, 7, 3, "P"), (40, 8, 3, "C"), (40, 8, 2, "C"),
                  (40, 8, 3, "P")]
    cycle = tuple(
        [(slot, "negsq", inst) for slot, inst in enumerate(_instances)]
        + [(slot, "boundary", inst) for slot, inst in enumerate(_instances)]
        + [(slot, "realize", inst) for slot, inst in enumerate(_instances)
           if inst[3] == "C"])

    def build(self, rng, call, inst):
        n, kappa, p, kind = inst
        system = _random_system(rng, kind, n, kappa, p)
        check_rng = np.random.default_rng(rng.integers(1 << 62))
        return getattr(self, "_" + call)(check_rng, system, kappa, kind)

    def _negsq(self, rng, system, kappa, kind):
        def run():
            return schur.negative_squares_estimate(schur.as_transfer(system))

        def check(est):
            bad = []
            _expect(bad, "negative squares", _estimate(est), kappa)
            return bad

        return Job("negsq", run, check)

    def _boundary(self, rng, system, kappa, kind):
        def run():
            return schur.boundary_behavior(schur.as_transfer(system))

        def check(bnd):
            bad = []
            want = (True, True, True) if kind == "C" else (True, False, False)
            _expect(bad, "contractive/inner/co-inner",
                    (bnd.contractive, bnd.inner, bnd.co_inner), want)
            picks = rng.choice(bnd.angles.size, size=4, replace=False)
            worst = 0.0
            for k in picks:
                ref = np.linalg.norm(refs.tf(system, np.exp(1j * bnd.angles[k])), 2)
                worst = max(worst, abs(ref - bnd.sigma_max[k]))
            _bound(bad, "sampled boundary norm", worst, 1e-9)
            return bad

        return Job("boundary", run, check)

    def _realize(self, rng, system, kappa, kind):
        held = refs.disc_samples(rng, 4, avoid=refs.poles_of(system), gap=1e-2)

        def run():
            return schur.canonical_coisometric_realization(schur.as_transfer(system))

        def check(model):
            bad = []
            _expect(bad, "model signature", (model.state.pos, model.state.neg),
                    (system.state.pos, system.state.neg))
            left, right = refs.metric_unitary_residual(model)
            _bound(bad, "model co-isometry", right, 1e-7)
            worst = max(refs.rel_err(refs.tf(model, z), refs.tf(system, z)) for z in held)
            _bound(bad, "model transfer at held-out points", worst, 1e-7)
            return bad

        return Job("realize", run, check)


# ---------------------------------------------------------------------------
# state_space


def _hidden_block(rng, n, kappa, io):
    """Conservative system with a decoupled metric-unitary block of three
    states: reachable and observable only on the visible part."""
    visible = sampling.random_conservative_colligation(
        rng, SignatureSpace(n - 3 - kappa, kappa), io)
    U = sampling.random_j_unitary(rng, SignatureSpace(2, 1))
    nv = visible.state_dim
    A = np.block([[visible.A, np.zeros((nv, 3))], [np.zeros((3, nv)), U]])
    B = np.vstack([visible.B, np.zeros((3, io))])
    C = np.hstack([visible.C, np.zeros((io, 3))])
    signs = np.concatenate([visible.state.signs, [1.0, 1.0, -1.0]])
    return colligation.Colligation(SignatureSpace.from_signs(signs), io, io,
                                   A, B, C, visible.D)


def _observable_first(rng, betas):
    """Observable passive Hilbert system kept away from zeros at betas
    (the criterion-06 family)."""
    while True:
        npos = 1 + int(rng.integers(0, 3))
        first = sampling.random_passive_colligation(
            rng, SignatureSpace(npos, 0), 1, 1, strict=0.2)
        if not colligation.classify(first).observable:
            continue
        if all(np.linalg.norm(refs.tf(first, b), 2) >= 0.05 for b in betas):
            return first


def _counterexample_pair(rng):
    """Canonical co-isometric model of the row (a b, 1)/sqrt(2) and the
    inverse Blaschke factor of b (the criterion-05 family): the cascade
    has a one-dimensional observability obstruction."""
    a_zero = 0.7 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    alpha = (0.3 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
    a_sys = schur.blaschke_potapov_factor(a_zero, 1.0, [1.0], 1)
    b_sys = schur.blaschke_potapov_factor(alpha, 1.0, [1.0], 1)
    ab = products.cascade(a_sys, b_sys)
    rt = 1.0 / np.sqrt(2.0)
    n = ab.state_dim
    row = colligation.Colligation(
        ab.state, 2, 1, ab.A, np.hstack([ab.B * rt, np.zeros((n, 1))]),
        ab.C, np.hstack([ab.D * rt, [[rt]]]))
    model = schur.canonical_coisometric_realization(schur.as_transfer(row))
    return model, schur.invert_system(b_sys)


class StateSpace(Workload):
    """State-space certificates, n = 8-40, kappa 0-8: no kernel sampling."""

    name = "state_space"
    cycles_per_second = 2.0
    _order = [
        ("classify", "C", 12, 2, 2), ("splits", "C", 16, 3, 1), ("kl_right", "C", 24, 5, 2),
        ("obs", "planted"), ("julia", "P", 16, 2, 2), ("stability", "C", 20, 4, 2),
        ("weak", "C", 8, 1, 1), ("kl_left", "C", 32, 6, 3), ("classify", "hidden", 14, 2, 1),
        ("ctrl", "planted"), ("splits", "P", 32, 6, 3), ("kl_right", "C", 8, 0, 1),
        ("stability", "P", 40, 8, 2), ("obs", "none"), ("julia", "P", 40, 8, 3),
        ("weak", "C", 24, 4, 2), ("classify", "P", 24, 4, 2), ("kl_left", "C", 40, 8, 1),
        ("ctrl", "none"), ("splits", "C", 8, 0, 2), ("weak", "C", 40, 8, 3),
    ]
    cycle = tuple((slot,) + e for slot, e in enumerate(_order))

    def build(self, rng, call, *params):
        return getattr(self, "_" + call)(rng, *params)

    def _classify(self, rng, kind, n, kappa, io):
        if kind == "hidden":
            system = _hidden_block(rng, n, kappa, io)
            want = ("conservative", False, False, False)
        else:
            system = _random_system(rng, kind, n, kappa, io)
            want = ("conservative", True, True, True) if kind == "C" else None

        def run():
            return colligation.classify(system)

        def check(cls):
            bad = []
            if want is None:
                _expect(bad, "kind", cls.kind.value, "passive")
            else:
                _expect(bad, "kind/controllable/observable/simple",
                        (cls.kind.value, cls.controllable, cls.observable, cls.simple), want)
            return bad

        return Job("classify", run, check)

    def _splits(self, rng, kind, n, kappa, io):
        system = _random_system(rng, kind, n, kappa, io)

        def run():
            return products.invariant_fundamental_decompositions(system)

        def check(out):
            split_plus, split_minus = out
            bad = []
            _, inside, outside = refs.eig_split(system.A)
            s = refs.signs_of(system)
            for name, sp in (("plus-invariant", split_plus), ("minus-invariant", split_minus)):
                _expect(bad, f"{name} dims", (sp.Xplus.dim, sp.Xminus.dim), (n - kappa, kappa))
                if (sp.Xplus.dim, sp.Xminus.dim) != (n - kappa, kappa):
                    continue
                for half, basis, sign in (("plus", sp.Xplus.basis, 1.0),
                                          ("minus", sp.Xminus.basis, -1.0)):
                    if basis.shape[1]:
                        Q, _ = np.linalg.qr(basis)
                        w = np.linalg.eigvalsh(Q.conj().T @ (s[:, None] * Q))
                        if not np.all(sign * w > 0):
                            bad.append(f"{name} {half} half is not definite")
            # eigenvector oracle: each split's invariant half is a spectral subspace
            _bound(bad, "minus half vs outside eigenvectors",
                   refs.angle(split_minus.Xminus.basis, outside), 1e-6)
            _bound(bad, "plus half vs inside eigenvectors",
                   refs.angle(split_plus.Xplus.basis, inside), 1e-6)
            return bad

        return Job("splits", run, check)

    def _stability(self, rng, kind, n, kappa, io):
        system = _random_system(rng, kind, n, kappa, io)

        def run():
            return products.stability_classify(system)

        def check(st):
            bad = []
            lam = np.linalg.eigvals(system.A)
            radius = float(np.max(np.abs(lam[np.abs(lam) < 1.0])))
            stable = radius < 1.0 - 1e-8
            label = ("C00" if kind == "C" else "P00") if stable else None
            _expect(bad, "label/kappa", (st.label, st.kappa), (label, kappa))
            worst = max(abs(st.forward_radius - radius), abs(st.backward_radius - radius))
            _bound(bad, "restricted radii vs inside spectrum", worst, 1e-6)
            return bad

        return Job("stability", run, check)

    def _kl(self, rng, mode, kind, n, kappa, io):
        system = _random_system(rng, kind, n, kappa, io)
        held = refs.disc_samples(rng, 4, avoid=refs.poles_of(system), gap=1e-2)

        def run():
            return products.kl_factorize_system(system, mode)

        def check(fac):
            bad = []
            sf, ib = fac.schur_factor, fac.inverse_blaschke_factor
            _expect(bad, "inverse factor signature", (ib.state.pos, ib.state.neg), (0, kappa))
            _expect(bad, "Schur factor negative index", sf.state.neg, 0)
            lam = np.linalg.eigvals(system.A)
            outside = lam[np.abs(lam) > 1.0]
            got = np.linalg.eigvals(ib.A) if ib.state_dim else np.zeros(0)
            _bound(bad, "inverse factor spectrum vs outside eigenvalues",
                   refs.match_spectra(got, outside), 1e-6)
            worst = 0.0
            for z in held:
                a, b = refs.tf(sf, z), refs.tf(ib, z)
                prod = a @ b if mode == "right" else b @ a
                worst = max(worst, refs.rel_err(prod, refs.tf(system, z)))
            _bound(bad, "cascade transfer at held-out points", worst, 1e-7)
            return bad

        return Job("kl_" + mode, run, check)

    def _kl_right(self, rng, *params):
        return self._kl(rng, "right", *params)

    def _kl_left(self, rng, *params):
        return self._kl(rng, "left", *params)

    def _julia(self, rng, kind, n, kappa, io):
        system = _random_system(rng, kind, n, kappa, io)
        held = refs.disc_samples(rng, 4, avoid=refs.poles_of(system), gap=1e-2)

        def run():
            return julia.julia_embedding(system)

        def check(emb):
            bad = []
            _expect(bad, "state signs", tuple(refs.signs_of(emb)), tuple(refs.signs_of(system)))
            _bound(bad, "embedding metric unitarity", max(refs.metric_unitary_residual(emb)), 1e-8)
            p, m = system.output_dim, system.input_dim
            worst = max(refs.rel_err(refs.tf(emb, z)[:p, :m], refs.tf(system, z)) for z in held)
            _bound(bad, "corner transfer at held-out points", worst, 1e-9)
            return bad

        return Job("julia", run, check)

    def _pair(self, rng, planted):
        if planted == "planted":
            first, second = _counterexample_pair(rng)
            return first, second, 1
        kappa = 1 + int(rng.integers(0, 2))
        betas = _separated_points(rng, kappa, [], lo=0.3, hi=0.7)
        return _observable_first(rng, betas), _scalar_inverse_blaschke(betas), 0

    def _obs(self, rng, planted):
        first, second, dim = self._pair(rng, planted)
        A, _, C = refs.cascade_blocks(first, second)
        pts = refs.disc_samples(rng, 3, avoid=np.concatenate(
            [refs.poles_of(first), refs.poles_of(second)]), gap=1e-2)

        def run():
            return products.obstruction_observable(first, second)

        def check(rep):
            bad = []
            _expect(bad, "observability obstruction dimension", rep.dimension, dim)
            if rep.dimension:
                _bound(bad, "obstruction vectors unobservable",
                       refs.unobservable_residual(A, C, rep.basis, pts), 1e-8)
            return bad

        return Job("obstruction_obs", run, check)

    def _ctrl(self, rng, planted):
        # the controllability obstruction of the adjoint pair mirrors the
        # observability obstruction of the pair itself
        first, second, dim = self._pair(rng, planted)
        first = colligation.adjoint_system(first)
        second = colligation.adjoint_system(second)
        first, second = second, first
        A, B, _ = refs.cascade_blocks(first, second)
        signs = np.concatenate([refs.signs_of(first), refs.signs_of(second)])
        pts = refs.disc_samples(rng, 3, avoid=np.concatenate(
            [refs.poles_of(first), refs.poles_of(second)]), gap=1e-2)

        def run():
            return products.obstruction_controllable(first, second)

        def check(rep):
            bad = []
            _expect(bad, "controllability obstruction dimension", rep.dimension, dim)
            if rep.dimension:
                _bound(bad, "obstruction vectors annihilate the reachable space",
                       refs.unreachable_residual(A, B, signs, rep.basis, pts), 1e-8)
            return bad

        return Job("obstruction_ctrl", run, check)

    def _weak(self, rng, kind, n, kappa, io):
        s1 = _random_system(rng, kind, n, kappa, io)
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z = np.eye(n) + 0.05 * R / max(1.0, np.linalg.norm(R, 2))
        s2 = colligation.state_change(s1, Z, s1.state)

        def run():
            return colligation.weak_similarity(s1, s2)

        def check(res):
            bad = []
            _bound(bad, "recovered state map vs planted map",
                   np.linalg.norm(res.Z - Z, 2) / np.linalg.norm(Z, 2), 1e-6)
            return bad

        return Job("weak_similarity", run, check)


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """Every pontsys command in-process on files written from the seed."""

    name = "cli"
    cycles_per_second = 1.9

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = Path(workdir) / "inputs"
        self.last_report = {}
        self._write_inputs(np.random.default_rng([seed, 1 << 41]))
        self.cycle = tuple((slot,) + tuple(e) for slot, e in enumerate(self._commands()))

    def _write_inputs(self, rng):
        f = self.files
        f.mkdir(parents=True, exist_ok=True)
        # two channels: with one, negative_squares_estimate needs four or
        # five doubling stages depending on the seed
        n, kappa = 10, 3
        cons = sampling.random_conservative_colligation(rng, SignatureSpace(n - kappa, kappa), 2)
        cli.save_system(cons, f / "conservative.json", name="conservative")
        passive = sampling.random_passive_colligation(rng, SignatureSpace(4, 0), 1, 1, strict=0.35)
        cli.save_system(passive, f / "passive.json", name="strictly passive")
        betas = _separated_points(rng, 2, [], lo=0.3, hi=0.7)
        cli.save_system(_observable_first(rng, betas), f / "first.json", name="observable")
        cli.save_system(_scalar_inverse_blaschke(betas), f / "second.json", name="inverse")
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z = np.eye(n) + 0.05 * R / max(1.0, np.linalg.norm(R, 2))
        # reload so both systems carry exactly the stored entries
        cons, _ = cli.load_system(f / "conservative.json")
        cli.save_system(colligation.state_change(cons, Z, cons.state), f / "changed.json",
                        name="state change")
        coeffs = [cons.D] + [cons.C @ np.linalg.matrix_power(cons.A, k) @ cons.B
                             for k in range(2 * n + 1)]
        (f / "taylor.json").write_text(json.dumps({
            "coefficients": [[[[float(v.real), float(v.imag)] for v in row] for row in c]
                             for c in coeffs],
            "order_bound": n}) + "\n")
        lam = np.linalg.eigvals(cons.A)
        self.ref = {
            "n": n, "kappa": kappa, "Z": Z,
            "cons_stable": float(np.max(np.abs(lam[np.abs(lam) < 1.0]))) < 1.0 - 1e-8,
            "alpha": round(0.3 + 0.4 * rng.random(), 6),
        }

    def _commands(self):
        f = self.files
        k = self.ref["kappa"]
        n = self.ref["n"]
        label = "C00" if self.ref["cons_stable"] else "none"
        c, p = str(f / "conservative.json"), str(f / "passive.json")
        return [
            ("classify", [c], {"kind": "conservative", "minimal": True}),
            ("factor-kl", [c, "--mode", "right"], {"kappa": k, "factorized": True}),
            ("negsq", [c], {"estimate": k, "stable": True, "pole_count_agrees": True}),
            ("product", [str(f / "first.json"), str(f / "second.json"), "--check", "obs"],
             {"observability_obstruction_dimension": 0, "product_observable": True}),
            ("julia-embed", [p], {"conservative": True, "corner_matches": True}),
            ("defect", [p], {"phi_is_zero": False, "psi_is_zero": False,
                             "contractive": True, "inner": False}),
            ("stability", [c], {"label": label, "kappa": k}),
            ("factor-kl", [c, "--mode", "left"], {"kappa": k, "factorized": True}),
            ("realize", [str(f / "taylor.json")], {"order": n, "reproduces_window": True}),
            ("similar", [c, str(f / "changed.json"), "--kind", "weak"],
             {"related": True, "kind": "weak"}),
            ("defect", [c], {"phi_is_zero": True, "psi_is_zero": True, "bi_inner": True}),
            ("classify", [p], {"kind": "passive"}),
            ("example-counter", ["--alpha", str(self.ref["alpha"])],
             {"obs_obstruction_dimension": 1, "ctrl_obstruction_dimension": 1,
              "reproduced": True}),
        ]

    def build(self, rng, command, args, want):
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.workdir))
        argv = [command] + list(args) + ["--out", str(out)]
        key = " ".join([command] + list(args))

        def run():
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return cli.main(argv)

        def check(code):
            bad = []
            self.bytes_written += sum(q.stat().st_size for q in out.rglob("*") if q.is_file())
            _expect(bad, "exit code", code, 0)
            path = out / f"{command}.report.json"
            if code != 0 or not path.exists():
                return bad + [f"{command}: no report written"]
            text = path.read_bytes()
            verdicts = json.loads(text)["verdicts"]
            if verdicts.get("verdict") == "inconclusive":
                raise Abstained(f"{command}: inconclusive verdict")
            for name, value in want.items():
                _expect(bad, f"{command} {name}", verdicts.get(name), value)
            if command == "similar":
                doc = json.loads((out / "similarity_map.json").read_text())
                Zs = np.array([[complex(*e) for e in row] for row in doc["Z"]])
                Z = self.ref["Z"]
                _bound(bad, "recovered state map vs planted map",
                       np.linalg.norm(Zs - Z, 2) / np.linalg.norm(Z, 2), 1e-6)
            previous = self.last_report.setdefault(key, text)
            if previous != text:
                bad.append(f"{command}: report differs from the previous run")
            return bad

        def cleanup():
            shutil.rmtree(out, ignore_errors=True)

        return Job(command, run, check, cleanup)



WORKLOADS = {w.name: w for w in (ScalarFactor, MatrixKernel, StateSpace, Cli)}
