#!/usr/bin/env bash
# Smoke test of the installed pontsys package: its console script, the
# module entry point and every demo, run from outside the checkout so that
# nothing is imported from src/.
#
# Run from an empty directory after installing the package:
#   cd "$(mktemp -d)" && bash /path/to/checkout/ci/smoke.sh
# Outputs go to $RUNNER_TEMP, by default the current directory; the demos
# are read from $GITHUB_WORKSPACE, by default the checkout holding this script.
set -euo pipefail
RUNNER_TEMP="${RUNNER_TEMP:-$PWD}"
GITHUB_WORKSPACE="${GITHUB_WORKSPACE:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

python -c "import pontsys"
# LAPACK comes from scipy's extension file, loaded without the
# scipy.linalg package and the numpy.f2py it imports; no BLAS extension
# is loaded
python -c "import sys, pontsys.cli; linalg = {n for n in sys.modules if n == 'scipy.linalg' or n.startswith('scipy.linalg.')}; assert linalg == {'scipy.linalg._flapack'}, linalg"
# the disc-region spectral subspaces are read off each system's Schur
# form by the fundamental splits; no public selector is exported
python -c "import pontsys, pontsys.indefinite as ind; assert not hasattr(pontsys, 'SpectralRegion') and not hasattr(ind, 'SpectralRegion')"
pontsys --help
python -W error::RuntimeWarning -m pontsys.cli --help
# the module and the console script write the same bytes
python -m pontsys.cli example-counter --out "$RUNNER_TEMP/ec-module"
pontsys example-counter --out "$RUNNER_TEMP/ec-script"
diff -r "$RUNNER_TEMP/ec-module" "$RUNNER_TEMP/ec-script"
pontsys example-counter --out "$RUNNER_TEMP/ec"
pontsys example-counter --a "0.3,-0.2" --out "$RUNNER_TEMP/ec3"
pontsys negsq "$RUNNER_TEMP/ec/example_cascade.json" --out "$RUNNER_TEMP/ns"
pontsys defect "$RUNNER_TEMP/ec/example_cascade.json" --out "$RUNNER_TEMP/df"
pontsys defect "$RUNNER_TEMP/ec/example_cascade.json" --out "$RUNNER_TEMP/df" --samples 100
# a header line and one line per sample
test "$(wc -l < "$RUNNER_TEMP/df/boundary.csv")" -eq 101
# a strictly passive scalar system of 40 states: the outer factor is
# read off the defect survey's own 128 values and certified
python -c "import sys, numpy as np; from pontsys import SignatureSpace, save_system; from pontsys.sampling import random_passive_colligation; save_system(random_passive_colligation(np.random.default_rng([40, 0, 0]), SignatureSpace(40, 0), 1, 1, strict=0.35), sys.argv[1])" "$RUNNER_TEMP/strict40.json"
pontsys defect "$RUNNER_TEMP/strict40.json" --out "$RUNNER_TEMP/df-strict40"
python -c "import json, sys; r = json.load(open(sys.argv[1])); assert not r['verdicts']['phi_is_zero'], r['verdicts']; assert 'phi' in r['certificates']; assert r['residuals']['scalar_factorization_boundary'] <= 1e-8, r['residuals']" "$RUNNER_TEMP/df-strict40/defect.report.json"
# the same system embeds conservatively with both defects of full
# rank 41, each factored by one certified Cholesky factorization; the
# corner verdict is the exact equality of the leading blocks
pontsys julia-embed "$RUNNER_TEMP/strict40.json" --out "$RUNNER_TEMP/je-strict40"
python -c "import json, sys; r = json.load(open(sys.argv[1])); v, c = r['verdicts'], r['certificates']; assert v['conservative'] is True and v['corner_matches'] is True, v; assert r['residuals'] == {}, r['residuals']; assert c['added_inputs'] == c['added_outputs'] == 41, c" "$RUNNER_TEMP/je-strict40/julia-embed.report.json"
# every eigenvalue of the inverse Blaschke example lies outside the
# disc, so every pole of the survey's resolvent lies inside it
pontsys defect "$RUNNER_TEMP/ec/example_inverse_blaschke.json" --out "$RUNNER_TEMP/df-invb"
python -c "import json, sys; v = json.load(open(sys.argv[1]))['verdicts']; assert v['bi_inner'] and v['phi_is_zero'] and v['psi_is_zero'], v" "$RUNNER_TEMP/df-invb/defect.report.json"
# a conservative system of 80 states and index 30: its circle
# survey is one back-substitution on the Schur form, and the
# system is bi-inner with both defects zero
python -c "import sys, numpy as np; from pontsys import SignatureSpace, save_system; from pontsys.sampling import random_conservative_colligation; save_system(random_conservative_colligation(np.random.default_rng([80, 5]), SignatureSpace(50, 30), 1), sys.argv[1])" "$RUNNER_TEMP/cons80-30.json"
pontsys defect "$RUNNER_TEMP/cons80-30.json" --out "$RUNNER_TEMP/df-cons80"
python -c "import json, sys; v = json.load(open(sys.argv[1]))['verdicts']; assert v['bi_inner'] and v['phi_is_zero'] and v['psi_is_zero'], v" "$RUNNER_TEMP/df-cons80/defect.report.json"
# classify's controllable and observable ranks, not only its exit code
for case in example_cascade:3:2 example_schur_row:2:2 example_inverse_blaschke:1:1; do
  IFS=: read -r name ctrl obs <<< "$case"
  pontsys classify "$RUNNER_TEMP/ec/$name.json" --out "$RUNNER_TEMP/cl-$name"
  python -c "import json, sys; c = json.load(open(sys.argv[1]))['certificates']; ranks = (c['controllable_rank'], c['observable_rank']); assert ranks == (int(sys.argv[2]), int(sys.argv[3])), ranks" "$RUNNER_TEMP/cl-$name/classify.report.json" "$ctrl" "$obs"
done
# the inverse Blaschke example beside a hidden J-unitary block on signs
# (+1, -1), with B and C zero there: every complement is that regular
# plane, whose Gram has a mixed diagonal, so its kind is read off the
# eigen route of the Hermitian verdict
python -c "import sys, numpy as np; from pontsys import Colligation, SignatureSpace, load_system, save_system; s = load_system(sys.argv[1])[0]; c, h = np.cosh(0.7), np.sinh(0.7); A = np.zeros((3, 3), complex); A[0, 0] = s.A[0, 0]; A[1:, 1:] = [[c, h], [h, c]]; save_system(Colligation(SignatureSpace.from_signs(list(s.state.signs) + [1.0, -1.0]), 1, 1, A, np.vstack([s.B, np.zeros((2, 1))]), np.hstack([s.C, np.zeros((1, 2))]), s.D), sys.argv[2])" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/hidden-regular.json"
pontsys classify "$RUNNER_TEMP/hidden-regular.json" --out "$RUNNER_TEMP/cl-hidden-regular"
python -c "import json, sys; k = json.load(open(sys.argv[1]))['certificates']['complement_kinds']; assert k == dict.fromkeys(('controllable', 'observable', 'simple'), 'regular'), k" "$RUNNER_TEMP/cl-hidden-regular/classify.report.json"
pontsys factor-kl "$RUNNER_TEMP/ec/example_inverse_blaschke.json" --mode left --out "$RUNNER_TEMP/kl"
# the schur row has index 0: right mode completes an empty negative
# block, which takes no triangular solve, and leaves an inverse factor
# with no state
pontsys factor-kl "$RUNNER_TEMP/ec/example_schur_row.json" --mode right --out "$RUNNER_TEMP/kl-row"
python -c "import json, sys; r = json.load(open(sys.argv[1])); v, inv = r['verdicts'], r['certificates']['inverse_blaschke_factor']; assert v['kappa'] == 0 and v['factorized'] is True, v; assert inv['state_dim'] == 0, inv" "$RUNNER_TEMP/kl-row/factor-kl.report.json"
# a non-simple conservative system: the inverse Blaschke example
# beside a decoupled state with eigenvalue e^{0.9i}, which factors
# on its fundamental split and stays in the Schur factor
python -c "import sys, numpy as np; from pontsys import Colligation, SignatureSpace, load_system, save_system; s = load_system(sys.argv[1])[0]; A = np.zeros((2, 2), complex); A[0, 0] = s.A[0, 0]; A[1, 1] = np.exp(0.9j); save_system(Colligation(SignatureSpace.from_signs([-1.0, 1.0]), 1, 1, A, np.vstack([s.B, [[0.0]]]), np.hstack([s.C, [[0.0]]]), s.D), sys.argv[2])" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/nonsimple.json"
for mode in right left; do
  pontsys factor-kl "$RUNNER_TEMP/nonsimple.json" --mode "$mode" --out "$RUNNER_TEMP/kl-nonsimple-$mode"
  python -c "import json, sys; r = json.load(open(sys.argv[1])); sig = r['certificates']['schur_factor']; assert r['verdicts']['kappa'] == 1, r['verdicts']; assert (sig['pos'], sig['neg']) == (1, 0), sig" "$RUNNER_TEMP/kl-nonsimple-$mode/factor-kl.report.json"
done
# a strictly passive backing of index 12, where the kernel ladder
# saturates below the index: the eigenvalues outside the disc of
# its minimal part settle it
python -c "import sys, numpy as np; from pontsys import SignatureSpace, save_system; from pontsys.sampling import random_passive_colligation; save_system(random_passive_colligation(np.random.default_rng([40, 12, 0]), SignatureSpace(28, 12), 1, 1, strict=0.35), sys.argv[1])" "$RUNNER_TEMP/probe40-12.json"
pontsys negsq "$RUNNER_TEMP/probe40-12.json" --out "$RUNNER_TEMP/ns-probe"
python -c "import json, sys; r = json.load(open(sys.argv[1])); got = (r['verdicts']['estimate'], r['certificates']['route']); assert got == (12, 'minimal_part'), got" "$RUNNER_TEMP/ns-probe/negsq.report.json"
# the same backing beside a decoupled negative state with A = 2, a
# hidden pole: the index stays 12, one below the disc pole count
python -c "import sys, numpy as np; from pontsys import Colligation, SignatureSpace, load_system, save_system; s = load_system(sys.argv[1])[0]; n = s.state_dim; A = np.zeros((n + 1, n + 1), complex); A[:n, :n] = s.A; A[n, n] = 2.0; save_system(Colligation(SignatureSpace.from_signs(np.append(s.state.signs, -1.0)), 1, 1, A, np.vstack([s.B, [[0.0]]]), np.hstack([s.C, [[0.0]]]), s.D), sys.argv[2])" "$RUNNER_TEMP/probe40-12.json" "$RUNNER_TEMP/probe40-12-hidden.json"
pontsys negsq "$RUNNER_TEMP/probe40-12-hidden.json" --out "$RUNNER_TEMP/ns-probe-hidden"
python -c "import json, sys; r = json.load(open(sys.argv[1])); got = (r['verdicts']['estimate'], r['certificates']['route'], r['verdicts']['pole_count_agrees']); assert got == (12, 'minimal_part', False), got" "$RUNNER_TEMP/ns-probe-hidden/negsq.report.json"
# the same backing factors on both sides, one pole at a time off
# its Schur form
python -c "import numpy as np; from pontsys import SignatureSpace, kl_factorize_function; from pontsys.sampling import random_passive_colligation; r = kl_factorize_function(random_passive_colligation(np.random.default_rng([40, 12, 0]), SignatureSpace(28, 12), 1, 1, strict=0.35)); got = (r.kappa, r.right_residual <= 1e-7, r.left_residual <= 1e-7); assert got == (12, True, True), (r.kappa, r.right_residual, r.left_residual)"
# the canonical co-isometric model, read off the state space: a
# conservative system of 80 states and index 20, and a Blaschke
# factor at 0.5 beside its inverse, whose eigenvalues 0.5 and 2
# are a reflection pair
python -c "import numpy as np; from pontsys import Colligation, SignatureSpace, canonical_coisometric_realization as ccr; from pontsys.sampling import random_conservative_colligation; m = ccr(random_conservative_colligation(np.random.default_rng([80, 20, 1]), SignatureSpace(60, 20), 1)); assert (m.state.pos, m.state.neg) == (60, 20), m.state; r = 0.75 ** 0.5; m = ccr(Colligation(SignatureSpace.from_signs([1.0, -1.0]), 2, 2, np.diag([0.5, 2.0]), np.diag([r, -2.0 * r]), np.diag([r, 2.0 * r]), np.diag([-0.5, -2.0]))); assert (m.state.pos, m.state.neg) == (1, 1), m.state"
# a conservative system of 10 states, index 3 and two channels:
# both modes certify an inverse Blaschke factor on a purely
# negative state of dimension 3, whose feedthrough is triangular,
# upper in right mode and lower in left mode, with a positive
# diagonal
python -c "import sys, numpy as np; from pontsys import SignatureSpace, save_system; from pontsys.sampling import random_conservative_colligation; save_system(random_conservative_colligation(np.random.default_rng([10, 3, 2]), SignatureSpace(7, 3), 2), sys.argv[1])" "$RUNNER_TEMP/cons10-3.json"
for mode in right left; do
  pontsys factor-kl "$RUNNER_TEMP/cons10-3.json" --mode "$mode" --out "$RUNNER_TEMP/kl-cons-$mode"
  python -c "import json, sys; r = json.load(open(sys.argv[1])); sig = r['certificates']['inverse_blaschke_factor']; got = (r['verdicts']['kappa'], sig['pos'], sig['neg']); assert got == (3, 0, 3), got" "$RUNNER_TEMP/kl-cons-$mode/factor-kl.report.json"
  python -c "import sys, numpy as np; from pontsys import load_system; D = load_system(sys.argv[1])[0].D; off = np.tril(D, -1) if sys.argv[2] == 'right' else np.triu(D, 1); d = np.diag(D); assert not off.any() and np.all(d.imag == 0) and np.all(d.real > 0), D" "$RUNNER_TEMP/kl-cons-$mode/factor_inverse_blaschke.json" "$mode"
done
# a conservative system of 40 states, index 8 and one channel: both
# modes factor it within the reconstruction bound 1e-8, and the
# inverse Blaschke factor's main operator is upper triangular with
# every diagonal entry outside the disc
python -c "import sys, numpy as np; from pontsys import SignatureSpace, save_system; from pontsys.sampling import random_conservative_colligation; save_system(random_conservative_colligation(np.random.default_rng([40, 8, 1]), SignatureSpace(32, 8), 1), sys.argv[1])" "$RUNNER_TEMP/cons40-8.json"
for mode in right left; do
  pontsys factor-kl "$RUNNER_TEMP/cons40-8.json" --mode "$mode" --out "$RUNNER_TEMP/kl-cons40-$mode"
  python -c "import json, sys, numpy as np; from pontsys import load_system; r = json.load(open(sys.argv[1])); v = r['verdicts']; assert v['kappa'] == 8, v; assert r['residuals']['cascade_reconstruction'] <= 1e-8, r['residuals']; A = load_system(sys.argv[2])[0].A; assert not np.tril(A, -1).any(), A; assert np.all(np.abs(np.diag(A)) > 1.0), np.diag(A)" "$RUNNER_TEMP/kl-cons40-$mode/factor-kl.report.json" "$RUNNER_TEMP/kl-cons40-$mode/factor_inverse_blaschke.json"
done
pontsys similar "$RUNNER_TEMP/ec/example_schur_row.json" "$RUNNER_TEMP/ec/example_schur_row.json" --kind weak --out "$RUNNER_TEMP/sim"
# stability's label and index, not only its exit code; the last
# file's decoupled positive mode on the circle is admitted with
# radius 1, so it has no class
for case in ec/example_inverse_blaschke:C00:1 ec/example_cascade:P00:1 ec/example_schur_row:I*.0:0 nonsimple:none:1; do
  IFS=: read -r name label kappa <<< "$case"
  pontsys stability "$RUNNER_TEMP/$name.json" --out "$RUNNER_TEMP/st-${name#ec/}"
  python -c "import json, sys; v = json.load(open(sys.argv[1]))['verdicts']; got = (v['label'], v['kappa']); assert got == (sys.argv[2], int(sys.argv[3])), got" "$RUNNER_TEMP/st-${name#ec/}/stability.report.json" "$label" "$kappa"
done
pontsys julia-embed "$RUNNER_TEMP/ec/example_schur_row.json" --out "$RUNNER_TEMP/je"
pontsys product "$RUNNER_TEMP/ec/example_schur_row.json" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" --check simple --out "$RUNNER_TEMP/pr"
# the three obstruction dimensions, not only the exit code
python -c "import json, sys; v = json.load(open(sys.argv[1]))['verdicts']; dims = tuple(v[k + '_obstruction_dimension'] for k in ('observability', 'controllability', 'simplicity')); assert dims == (1, 0, 0), dims" "$RUNNER_TEMP/pr/product.report.json"
# a system is unitarily similar to itself
pontsys similar "$RUNNER_TEMP/ec/example_schur_row.json" "$RUNNER_TEMP/ec/example_schur_row.json" --kind unitary --out "$RUNNER_TEMP/sim-unitary"
python -c "import json, sys; v = json.load(open(sys.argv[1]))['verdicts']; assert v['related'] is True and v['kind'] == 'unitary', v" "$RUNNER_TEMP/sim-unitary/similar.report.json"
# and to its image under a planted metric-unitary state change: the
# written map is the planted one
python -c "import sys, numpy as np; from pontsys import load_system, save_system, state_change; from pontsys.sampling import random_j_unitary; s = load_system(sys.argv[1])[0]; Z = random_j_unitary(np.random.default_rng([10, 3, 5]), s.state); np.save(sys.argv[3], Z); save_system(state_change(s, Z, s.state), sys.argv[2])" "$RUNNER_TEMP/cons10-3.json" "$RUNNER_TEMP/cons10-3-moved.json" "$RUNNER_TEMP/cons10-3-map.npy"
pontsys similar "$RUNNER_TEMP/cons10-3.json" "$RUNNER_TEMP/cons10-3-moved.json" --kind unitary --out "$RUNNER_TEMP/sim-unitary-moved"
python -c "import json, sys, numpy as np; v = json.load(open(sys.argv[1]))['verdicts']; assert v['related'] is True and v['kind'] == 'unitary', v; Z = np.array([[complex(*e) for e in row] for row in json.load(open(sys.argv[2]))['Z']]); W = np.load(sys.argv[3]); gap = np.linalg.norm(Z - W, 2) / np.linalg.norm(W, 2); assert gap <= 1e-6, gap" "$RUNNER_TEMP/sim-unitary-moved/similar.report.json" "$RUNNER_TEMP/sim-unitary-moved/similarity_map.json" "$RUNNER_TEMP/cons10-3-map.npy"
# the same at 40 states and index 8: each system's samples are one
# sweep of B and one of C^H per point on its Schur form
python -c "import sys, numpy as np; from pontsys import load_system, save_system, state_change; from pontsys.sampling import random_j_unitary; s = load_system(sys.argv[1])[0]; Z = random_j_unitary(np.random.default_rng([40, 8, 5]), s.state); np.save(sys.argv[3], Z); save_system(state_change(s, Z, s.state), sys.argv[2])" "$RUNNER_TEMP/cons40-8.json" "$RUNNER_TEMP/cons40-8-moved.json" "$RUNNER_TEMP/cons40-8-map.npy"
pontsys similar "$RUNNER_TEMP/cons40-8.json" "$RUNNER_TEMP/cons40-8-moved.json" --kind unitary --out "$RUNNER_TEMP/sim-unitary-40"
python -c "import json, sys, numpy as np; v = json.load(open(sys.argv[1]))['verdicts']; assert v['related'] is True and v['kind'] == 'unitary', v; Z = np.array([[complex(*e) for e in row] for row in json.load(open(sys.argv[2]))['Z']]); W = np.load(sys.argv[3]); gap = np.linalg.norm(Z - W, 2) / np.linalg.norm(W, 2); assert gap <= 1e-6, gap" "$RUNNER_TEMP/sim-unitary-40/similar.report.json" "$RUNNER_TEMP/sim-unitary-40/similarity_map.json" "$RUNNER_TEMP/cons40-8-map.npy"
# a refused weak similarity exits 2: the states differ in
# dimension, so the second system's Krylov report is built
# before the input/output check refuses the pair
status=0
pontsys similar "$RUNNER_TEMP/ec/example_schur_row.json" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" --kind weak --out "$RUNNER_TEMP/sim2" || status=$?
test "$status" -eq 2
# weak similarity on both Taylor routes: a state change of the
# inverse Blaschke example passes the window on Frobenius norms,
# and a feedthrough moved by 1e-3 fails them, takes the eigen-solve
# and is refused at order 0 with exit status 2
python -c "import sys; from pontsys import load_system, save_system, state_change; s = load_system(sys.argv[1])[0]; save_system(state_change(s, [[2.0]], s.state), sys.argv[2])" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/invb-changed.json"
python -c "import sys; from pontsys import Colligation, load_system, save_system; s = load_system(sys.argv[1])[0]; save_system(Colligation(s.state, s.input_dim, s.output_dim, s.A, s.B, s.C, s.D + 1e-3), sys.argv[2])" "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/invb-shifted.json"
pontsys similar "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/invb-changed.json" --kind weak --out "$RUNNER_TEMP/sim-weak"
python -c "import json, sys; r = json.load(open(sys.argv[1])); v = r['verdicts']; assert v['related'] is True and v['kind'] == 'weak', v; assert all(r['residuals'][k] <= 1e-8 for k in 'ABCD'), r['residuals']" "$RUNNER_TEMP/sim-weak/similar.report.json"
status=0
pontsys similar "$RUNNER_TEMP/ec/example_inverse_blaschke.json" "$RUNNER_TEMP/invb-shifted.json" --kind weak --out "$RUNNER_TEMP/sim-weak2" 2> "$RUNNER_TEMP/sim-weak2.err" || status=$?
test "$status" -eq 2
grep -q "Taylor coefficients differ at order 0" "$RUNNER_TEMP/sim-weak2.err"
for d in "$GITHUB_WORKSPACE"/demos/*.py; do python "$d"; done
