"""Independent numpy references for the benchmark's correctness gate.

Nothing here calls pontsys: transfer values, spectra, metric identities
and subspace angles are recomputed from the raw block matrices, so a
defect in the library cannot also hide in its own check.
"""

import numpy as np


def tf(system, z):
    """D + z C (I - z A)^(-1) B straight from the blocks."""
    n = system.A.shape[0]
    if n == 0:
        return np.array(system.D, dtype=complex)
    M = np.eye(n) - z * system.A
    return system.D + z * (system.C @ np.linalg.solve(M, system.B))


def rel_err(got, want):
    return float(np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2)))


def signs_of(system):
    return np.asarray(system.state.signs, dtype=float)


def disc_samples(rng, count, avoid=(), radius=0.85, gap=1e-3):
    """Held-out points in the disc, away from the given poles and zeros."""
    avoid = np.asarray(list(avoid), dtype=complex)
    out = []
    while len(out) < count:
        z = radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        if avoid.size == 0 or np.min(np.abs(avoid - z)) > gap:
            out.append(z)
    return np.array(out)


def poles_of(system):
    lam = np.linalg.eigvals(system.A) if system.A.size else np.zeros(0)
    lam = lam[np.abs(lam) > 1e-12]
    return 1.0 / lam


def circle_samples(rng, count):
    return np.exp(2j * np.pi * (rng.random() + np.arange(count)) / count)


def angle(U, V):
    """Largest principal angle between two column spans (radians)."""
    if U.shape[1] == 0 and V.shape[1] == 0:
        return 0.0
    if U.shape[1] != V.shape[1]:
        return float("inf")
    QU, _ = np.linalg.qr(U)
    QV, _ = np.linalg.qr(V)
    s = np.linalg.svd(QU.conj().T @ QV, compute_uv=False)
    return float(np.arccos(np.clip(np.min(s), -1.0, 1.0)))


def eig_split(A):
    """Eigenvectors of A inside and outside the closed unit disc."""
    lam, V = np.linalg.eig(A)
    out = np.abs(lam) > 1.0
    return lam, V[:, ~out], V[:, out]


def match_spectra(a, b):
    """Largest distance of a greedy matching between two eigenvalue lists."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x in a:
        k = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b.pop(k)) / max(1.0, abs(x)))
    return worst


def operator(system):
    return np.block([[system.A, system.B], [system.C, system.D]])


def metric_unitary_residual(system):
    """|| T^* J' T - J || for the system operator T between the extended metrics."""
    s = signs_of(system)
    T = operator(system)
    Jd = np.diag(np.concatenate([s, np.ones(system.input_dim)]))
    Jc = np.diag(np.concatenate([s, np.ones(system.output_dim)]))
    scale = max(1.0, np.linalg.norm(T, 2) ** 2)
    left = np.linalg.norm(T.conj().T @ Jc @ T - Jd, 2)
    right = np.linalg.norm(T @ Jd @ T.conj().T - Jc, 2)
    return float(left / scale), float(right / scale)


def cascade_blocks(first, second):
    """Blocks of the series connection: output of first feeds second."""
    n1, n2 = first.A.shape[0], second.A.shape[0]
    A = np.block([[first.A, np.zeros((n1, n2))],
                  [second.B @ first.C, second.A]])
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    return A, B, C


def unobservable_residual(A, C, X, points):
    """Largest || C (I - zA)^(-1) x || / (||C|| ||(I - zA)^(-1) x||) over columns x."""
    n = A.shape[0]
    worst = 0.0
    cn = max(np.linalg.norm(C, 2), 1e-300)
    for z in points:
        Y = np.linalg.solve(np.eye(n) - z * A, X)
        for k in range(Y.shape[1]):
            worst = max(worst, np.linalg.norm(C @ Y[:, k])
                        / (cn * max(np.linalg.norm(Y[:, k]), 1e-300)))
    return worst


def unreachable_residual(A, B, signs, X, points):
    """Largest | x^* J (I - zA)^(-1) B | relative, over columns x."""
    n = A.shape[0]
    worst = 0.0
    JX = signs[:, None] * X
    for z in points:
        R = np.linalg.solve(np.eye(n) - z * A, B)
        num = np.linalg.norm(JX.conj().T @ R, axis=1)
        den = np.linalg.norm(X, axis=0) * max(np.linalg.norm(R, 2), 1e-300)
        worst = max(worst, float(np.max(num / np.maximum(den, 1e-300))))
    return worst
