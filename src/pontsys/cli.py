"""Command line surface: JSON systems in, JSON verdicts and CSV samples out.

Systems travel as SystemFile documents holding the state signature and the
four block operators with complex entries written as [re, im] pairs, which
round-trip bit stably through shortest-repr float formatting.  Every
command writes a ReportDocument that embeds the tolerances and seed it ran
under and hashes of its file inputs, and saves each system it constructs
as a SystemFile of its own, so multi-step pipelines can be replayed and
diffed file by file.  One writer, _json_text, produces every JSON file in
one pass with the bytes of json.dumps(..., indent=2).

Exit codes: 0 on success, 1 when an internal consistency certificate
fails, 2 on invalid input.
"""

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .colligation import (
    Colligation,
    SystemKind,
    _spectral_norms,
    _taylor_stack,
    adjoint_system,
    classify,
    realize_from_taylor,
    system_kind,
    to_canonical,
    unitary_similarity,
    weak_similarity,
)
from .exceptions import (
    InputError,
    InternalConsistencyError,
    PontsysError,
    certify,
)
from .indefinite import DEFAULT_TOL, SignatureSpace, intersect_spans
from .julia import julia_embedding
from .products import (
    cascade,
    kl_factorize_system,
    obstruction_controllable,
    obstruction_observable,
    stability_classify,
)
from .sampling import disc_points
from .schur import (
    _negative_squares,
    _relative_mismatch,
    as_transfer,
    blaschke_potapov_factor,
    blaschke_product,
    boundary_behavior,
    canonical_coisometric_realization,
    defect,
    invert_system,
    kernel_gram,
    negative_squares_estimate,
)

__all__ = ["main", "load_system", "save_system"]


# ---------------------------------------------------------------------------
# JSON text


_encode_str = json.encoder.encode_basestring_ascii


def _block(items, pad, brackets="[]"):
    """Indented JSON text of an array (an object with brackets "{}") of
    item texts, sitting at pad."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


@functools.lru_cache(maxsize=256)
def _matrix_template(rows, cols, pad):
    """%r template of a complex matrix as rows of [re, im] pairs."""
    pair = _block(["%r", "%r"], pad + "    ")
    return _block([_block([pair] * cols, pad + "  ")] * rows, pad)


def _float_text(x):
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(
        f"Out of range float values are not JSON compliant: {x!r}")


def _json_text(value, pad="\n"):
    """json.dumps(value, indent=2, allow_nan=False) of value sitting at pad,
    in one pass that also converts numpy scalars and arrays to Python
    values, complex numbers to [re, im], Path and dict keys to str, and a
    NaN float to null.  A finite complex matrix fills one template."""
    if isinstance(value, str):
        return _encode_str(value)
    inner = pad + "  "
    if isinstance(value, dict):
        return _block([_encode_str(str(k)) + ": " + _json_text(v, inner)
                       for k, v in value.items()], pad, "{}")
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "null" if math.isnan(value) else _float_text(value)
    if isinstance(value, (list, tuple)):
        return _block([_json_text(v, inner) for v in value], pad)
    if isinstance(value, (complex, np.complexfloating)):
        # complex128 parts stay numpy floats, whose repr an error shows
        if not isinstance(value, complex):
            value = complex(value)
        return _block([_float_text(value.real), _float_text(value.imag)], pad)
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == complex:
            flat = np.ascontiguousarray(value).view(float).ravel().tolist()
            # a non-finite entry makes the sum non-finite; an overflowing
            # sum of finite entries only sends them the long way
            if math.isfinite(sum(flat)):
                return _matrix_template(*value.shape, pad) % tuple(flat)
        return _json_text(value.tolist(), pad)
    if isinstance(value, Path):
        return _encode_str(str(value))
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# SystemFile encoding


def _is_number(x):
    # JSON true and false decode to bool, a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decode_entry(obj, field, source):
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(map(_is_number, obj))):
        raise InputError(
            f"{source}: field {field}: expected a two-number [re, im] pair")
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        raise InputError(
            f"{source}: field {field}: number too large for a float")


def _decode_matrix(obj, rows, cols, field, source):
    if not isinstance(obj, list) or len(obj) != rows:
        raise InputError(
            f"{source}: field {field}: expected {rows} rows")
    # a well-formed matrix converts in one pass: a malformed row or entry
    # drops out of flat, and the loop below names it
    flat = [x for row in obj if type(row) is list and len(row) == cols
            for entry in row if type(entry) is list and len(entry) == 2
            for x in entry]
    if len(flat) == 2 * rows * cols and set(map(type, flat)) <= {int, float}:
        try:
            # the [re, im] pairs are the bits of the complex entries
            return np.array(flat, dtype=float).view(complex).reshape(rows, cols)
        except OverflowError:
            pass
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(
                f"{source}: field {field}[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _decode_entry(entry, f"{field}[{i}][{j}]", source)
    return out


def _require(doc, field, kind, source):
    if field not in doc:
        raise InputError(f"{source}: missing field {field}")
    value = doc[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InputError(f"{source}: field {field}: expected an integer")
    if kind is dict and not isinstance(value, dict):
        raise InputError(f"{source}: field {field}: expected an object")
    return value


def system_from_json(doc, source="<system>"):
    """Build a colligation and its metadata dict from a SystemFile document."""
    if not isinstance(doc, dict):
        raise InputError(f"{source}: top level must be an object")
    state = _require(doc, "state", dict, source)
    pos = _require(state, "pos", int, f"{source}: state")
    neg = _require(state, "neg", int, f"{source}: state")
    if pos < 0 or neg < 0:
        raise InputError(f"{source}: field state: signature must be nonnegative")
    m = _require(doc, "input_dim", int, source)
    p = _require(doc, "output_dim", int, source)
    if m < 0 or p < 0:
        raise InputError(f"{source}: input_dim/output_dim must be nonnegative")
    n = pos + neg
    A = _decode_matrix(_require(doc, "A", None, source), n, n, "A", source)
    B = _decode_matrix(_require(doc, "B", None, source), n, m, "B", source)
    C = _decode_matrix(_require(doc, "C", None, source), p, n, "C", source)
    D = _decode_matrix(_require(doc, "D", None, source), p, m, "D", source)
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise InputError(f"{source}: field metadata: expected an object")
    return Colligation(SignatureSpace(pos, neg), m, p, A, B, C, D), meta


def _system_doc(system, name=None, notes=None):
    # the file format orders the state canonically (positive part first),
    # so permute a patterned signature into that order before writing
    system = to_canonical(system)
    doc = {
        "state": {"pos": system.state.pos, "neg": system.state.neg},
        "input_dim": system.input_dim,
        "output_dim": system.output_dim,
        "A": system.A,
        "B": system.B,
        "C": system.C,
        "D": system.D,
    }
    meta = {}
    if name is not None:
        meta["name"] = name
    if notes is not None:
        meta["notes"] = notes
    if meta:
        doc["metadata"] = meta
    return doc


def system_to_json(system, name=None, notes=None):
    """The SystemFile document of system, as json.loads reads it back."""
    return json.loads(_json_text(_system_doc(system, name, notes)))


def _read_json(path):
    """Decode a JSON file read once; returns the document and the input
    record (path and SHA-256 of the bytes) that reports embed.  Read and
    decode errors become InputError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    # decoded as Path.read_text decodes: default encoding, universal newlines
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return doc, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _load_system_input(path):
    """load_system, with the input record of the file it read."""
    doc, record = _read_json(path)
    return (*system_from_json(doc, source=str(path)), record)


def load_system(path):
    """Read a SystemFile; errors carry the path and the failing field."""
    return _load_system_input(path)[:2]


def save_system(system, path, name=None, notes=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(_system_doc(system, name, notes)) + "\n")
    return path


def _load_taylor(path):
    doc, record = _read_json(path)
    source = str(path)
    if not isinstance(doc, dict):
        raise InputError(f"{source}: top level must be an object")
    raw = doc.get("coefficients")
    if not isinstance(raw, list) or not raw:
        raise InputError(
            f"{source}: field coefficients: expected a nonempty array")
    first = raw[0]
    if not isinstance(first, list) or not first or not isinstance(first[0], list):
        raise InputError(f"{source}: field coefficients[0]: expected a matrix")
    p = len(first)
    mm = len(first[0])
    coeffs = [_decode_matrix(c, p, mm, f"coefficients[{k}]", source)
              for k, c in enumerate(raw)]
    order_bound = doc.get("order_bound")
    if order_bound is not None and (not isinstance(order_bound, int)
                                    or isinstance(order_bound, bool)):
        raise InputError(f"{source}: field order_bound: expected an integer")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise InputError(f"{source}: field metadata: expected an object")
    return coeffs, order_bound, meta, record


# ---------------------------------------------------------------------------
# report plumbing


def _tol_dict(tol):
    return {f.name: getattr(tol, f.name) for f in dataclasses.fields(tol)}


def _resolve_tolerances(args, *metas):
    """Metadata overrides first (in order), then command line flags."""
    fields = {}
    valid = {f.name for f in dataclasses.fields(DEFAULT_TOL)}
    for meta in metas:
        overrides = (meta or {}).get("tolerances", {})
        if not isinstance(overrides, dict):
            raise InputError("metadata tolerances must be an object")
        for key, value in overrides.items():
            if key not in valid:
                raise InputError(f"unknown tolerance override {key!r}")
            if isinstance(getattr(DEFAULT_TOL, key), int):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InputError(
                        f"tolerance override {key!r}: expected an integer")
            elif not _is_number(value):
                raise InputError(
                    f"tolerance override {key!r}: expected a number")
            fields[key] = value
    if args.tol is not None:
        fields["metric_tol"] = args.tol
    if args.samples is not None:
        fields["boundary_samples"] = args.samples
        fields["disc_samples"] = args.samples
    if args.seed is not None:
        fields["seed"] = args.seed
    return dataclasses.replace(DEFAULT_TOL, **fields)


def _parameters(args, **extra):
    # the output directory is not echoed: reports must be byte-identical
    # across runs that differ only in where they are written
    base = {
        "tol": args.tol,
        "samples": args.samples,
        "seed": args.seed,
    }
    base.update(extra)
    return base


def _emit_report(args, command, inputs, parameters, tol, verdicts,
                 residuals, certificates, notes):
    report = {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "tolerances": _tol_dict(tol),
        "verdicts": verdicts,
        "residuals": residuals,
        "certificates": certificates,
        "notes": list(notes),
    }
    text = _json_text(report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{command}.report.json").write_text(text + "\n")
    print(text)
    return 0


def _signature_dict(system):
    return {"pos": system.state.pos, "neg": system.state.neg,
            "state_dim": system.state_dim,
            "input_dim": system.input_dim, "output_dim": system.output_dim}


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    cls = classify(system, tol)
    rep = cls.krylov
    verdicts = {
        "kind": cls.kind.value,
        "passive": cls.is_passive,
        "controllable": cls.controllable,
        "observable": cls.observable,
        "simple": cls.simple,
        "minimal": cls.minimal,
        "index_preserving": rep.index_preserving,
    }
    certificates = {
        "signature": _signature_dict(system),
        "kappa": system.kappa,
        "controllable_rank": rep.controllable_space.dim,
        "observable_rank": rep.observable_space.dim,
        "simple_rank": rep.simple_space.dim,
        "complement_kinds": {k: v.value for k, v in rep.complement_kinds.items()},
        "kappa_estimate": _negative_squares(as_transfer(system), cls.kind,
                                            tol).estimate,
    }
    return _emit_report(
        args, "classify", {"system": source},
        _parameters(args), tol, verdicts, {}, certificates,
        ["metric class from the system operator against the signature "
         "metrics; reachable and observable spans from the Hautus test on "
         "the Schur form of A"])


def cmd_factor_kl(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    fac = kl_factorize_system(system, args.mode, tol)
    schur_path = save_system(
        fac.schur_factor, Path(args.out) / "factor_schur.json",
        name="schur-class factor")
    invb_path = save_system(
        fac.inverse_blaschke_factor,
        Path(args.out) / "factor_inverse_blaschke.json",
        name="inverse Blaschke factor")
    kappa = fac.inverse_blaschke_factor.state_dim
    verdicts = {"mode": fac.mode, "kappa": kappa, "factorized": True}
    residuals = {"cascade_reconstruction": fac.reconstruction_residual}
    certificates = {
        "schur_factor": _signature_dict(fac.schur_factor),
        "inverse_blaschke_factor": _signature_dict(fac.inverse_blaschke_factor),
        "artifacts": {"schur": schur_path.name, "inverse_blaschke": invb_path.name},
    }
    return _emit_report(
        args, "factor-kl", {"system": source},
        _parameters(args, mode=args.mode), tol, verdicts, residuals,
        certificates,
        ["factor order: schur then inverse factor in right mode, reversed "
         "in left mode; cascade certified against the input system"])


def cmd_product(args):
    first, meta1, first_source = _load_system_input(args.first)
    second, meta2, second_source = _load_system_input(args.second)
    tol = _resolve_tolerances(args, meta1, meta2)
    cas = cascade(first, second)
    cas_path = save_system(cas, Path(args.out) / "product_cascade.json",
                           name="cascade product")
    kind = system_kind(cas, tol)
    verdicts = {"kind": kind.value, "passive": kind != SystemKind.NONE}
    residuals = {}
    certificates = {
        "cascade": _signature_dict(cas),
        "artifacts": {"cascade": cas_path.name},
    }
    notes = ["cascade state order: first factor then second factor"]
    if args.check in ("obs", "simple"):
        rep = obstruction_observable(first, second, tol)
        verdicts["observability_obstruction_dimension"] = rep.dimension
        verdicts["product_observable"] = rep.dimension == 0
        residuals["observability_oracle_agreement"] = rep.agreement_residual
    if args.check in ("cont", "simple"):
        rep_c = obstruction_controllable(first, second, tol)
        verdicts["controllability_obstruction_dimension"] = rep_c.dimension
        verdicts["product_controllable"] = rep_c.dimension == 0
        residuals["controllability_oracle_agreement"] = rep_c.agreement_residual
    if args.check == "simple":
        joint = intersect_spans(rep.basis, rep_c.basis, tol)
        verdicts["simplicity_obstruction_dimension"] = joint.shape[1]
        verdicts["product_simple"] = joint.shape[1] == 0
        notes.append("simplicity obstruction is the intersection of the "
                     "unobservable and unreachable solution spaces")
    return _emit_report(
        args, "product",
        {"first": first_source, "second": second_source},
        _parameters(args, check=args.check), tol, verdicts, residuals,
        certificates, notes)


def cmd_negsq(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    S = as_transfer(system)
    est = negative_squares_estimate(S, tol)
    pts = disc_points(min(tol.disc_samples, 48), seed=tol.seed * 53 + 1,
                      radius=0.9, exclude=S.poles, min_dist=1e-4)
    gram = kernel_gram(S, pts, tol)
    verdicts = {
        "estimate": est.estimate,
        "stable": est.stable,
        "verdict": est.verdict,
        "pole_count_agrees": est.agrees,
    }
    certificates = {
        "history": list(est.history),
        "disc_pole_count": est.pole_count,
        "sample_inertia": {"plus": gram.inertia[0], "zero": gram.inertia[1],
                           "minus": gram.inertia[2]},
    }
    return _emit_report(
        args, "negsq", {"system": source},
        _parameters(args), tol, verdicts, {}, certificates,
        ["negative squares from kernel inertia over growing sample batches; "
         "pole count from the backing realization spectrum"])


def cmd_julia_embed(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    emb = julia_embedding(system, tol)
    emb_path = save_system(emb, Path(args.out) / "julia_embedding.json",
                           name="conservative defect embedding")
    S = as_transfer(system)
    p, m = system.output_dim, system.input_dim
    pts = disc_points(16, seed=tol.seed * 91 + 2, radius=0.85,
                      exclude=S.poles, min_dist=1e-4)
    want = S.values(pts, tol)
    got = as_transfer(emb).values(pts, tol)[:, :p, :m]
    corner = certify("embedding corner transfer mismatch",
                     _relative_mismatch(got, want), 1e-9)
    # julia_embedding returns only an embedding it certified conservative
    verdicts = {
        "kind": SystemKind.CONSERVATIVE.value,
        "conservative": True,
        "corner_matches": True,
    }
    residuals = {"corner_transfer": corner}
    certificates = {
        "embedded": _signature_dict(emb),
        "added_inputs": emb.input_dim - system.input_dim,
        "added_outputs": emb.output_dim - system.output_dim,
        "artifacts": {"embedding": emb_path.name},
    }
    return _emit_report(
        args, "julia-embed", {"system": source},
        _parameters(args), tol, verdicts, residuals, certificates,
        ["defect coordinates appended to input and output; state space "
         "unchanged; original channels form the leading corner"])


def cmd_defect(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    # one function, so defect's 128-point survey is the even half of the
    # boundary survey's 256 points
    S = as_transfer(system)
    bnd = boundary_behavior(S, tol)
    res = defect(S, tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "boundary.csv"
    # the bytes csv.writer would write over bnd.rows(): repr fields, CRLF
    # line ends
    table = np.column_stack([bnd.angles, bnd.sigma_max, bnd.defect_right,
                             bnd.defect_left])
    with csv_path.open("w", newline="") as handle:
        handle.write("theta,sigma_max,defect_right_norm,defect_left_norm\r\n"
                     + ("%r,%r,%r,%r\r\n" * len(table))
                     % tuple(table.ravel().tolist()))
    verdicts = {
        "phi_is_zero": res.phi_is_zero,
        "psi_is_zero": res.psi_is_zero,
        "contractive": bnd.contractive,
        "inner": bnd.inner,
        "co_inner": bnd.co_inner,
        "bi_inner": bnd.bi_inner,
    }
    residuals = {
        "right_defect_max": res.right_defect_max,
        "left_defect_max": res.left_defect_max,
        "scalar_factorization_boundary": res.boundary_residual,
    }
    certificates = {"artifacts": {"boundary_csv": csv_path.name},
                    "boundary_samples": int(bnd.angles.size),
                    "skipped_samples": bnd.skipped}
    for name, fn in (("phi", res.phi), ("psi", res.psi)):
        if fn is not None:
            certificates[name] = {
                "numerator": fn.numerator.astype(complex),
                "denominator": fn.denominator.astype(complex),
            }
    return _emit_report(
        args, "defect", {"system": source},
        _parameters(args), tol, verdicts, residuals, certificates,
        [res.note, bnd.note])


def cmd_stability(args):
    system, meta, source = _load_system_input(args.path)
    tol = _resolve_tolerances(args, meta)
    st = stability_classify(system, tol)
    verdicts = {
        "label": st.label,
        "kappa": st.kappa,
        "forward_stable": st.forward,
        "backward_stable": st.backward,
        "bistable": st.bistable,
    }
    certificates = {
        "forward_radius": st.forward_radius,
        "backward_radius": st.backward_radius,
    }
    return _emit_report(
        args, "stability", {"system": source},
        _parameters(args), tol, verdicts, {}, certificates,
        ["spectral radii of the main operator restricted to the positive "
         "halves of the two invariant fundamental decompositions"])


def cmd_realize(args):
    coeffs, order_bound, meta, source = _load_taylor(args.path)
    tol = _resolve_tolerances(args, meta)
    real = realize_from_taylor(coeffs, tol, order_bound=order_bound)
    n = real.A.shape[0]
    system = Colligation(SignatureSpace(n, 0), real.B.shape[1],
                         real.C.shape[0], real.A, real.B, real.C, real.D)
    data = np.asarray(coeffs, dtype=complex)
    k = len(coeffs)
    # one stacked solve for the norms of the differences and of the data
    norms = _spectral_norms(np.concatenate([_taylor_stack(system, k - 1) - data, data]))
    resid = float(np.max(norms[:k]) / max(1.0, np.max(norms[k:])))
    certify("realization coefficient window mismatch", resid, 1e-7)
    sys_path = save_system(
        system, Path(args.out) / "realized_system.json",
        name="realization from Taylor coefficients",
        notes="state labels are nominal Hilbert signs; no passivity asserted")
    verdicts = {"order": n, "reproduces_window": True}
    residuals = {"markov_window": resid}
    certificates = {
        "signature": _signature_dict(system),
        "window_length": len(coeffs),
        "artifacts": {"system": sys_path.name},
    }
    return _emit_report(
        args, "realize", {"taylor": source},
        _parameters(args), tol, verdicts, residuals, certificates,
        ["block Hankel factorization with rank stabilization across window "
         "sizes; the state carries no metric information"])


def cmd_similar(args):
    first, meta1, first_source = _load_system_input(args.first)
    second, meta2, second_source = _load_system_input(args.second)
    tol = _resolve_tolerances(args, meta1, meta2)
    inputs = {"first": first_source, "second": second_source}
    if args.kind == "unitary":
        res = unitary_similarity(first, second, tol)
    else:
        res = weak_similarity(first, second, tol)
    if res is None:
        return _emit_report(
            args, "similar", inputs, _parameters(args, kind=args.kind), tol,
            {"related": False, "kind": args.kind}, {}, {},
            ["no metric-unitary state map intertwines the two systems"])
    map_path = Path(args.out) / "similarity_map.json"
    map_path.parent.mkdir(parents=True, exist_ok=True)
    map_path.write_text(_json_text(
        {"kind": res.kind, "Z": np.asarray(res.Z, dtype=complex)}) + "\n")
    verdicts = {"related": True, "kind": res.kind}
    residuals = dict(res.residuals)
    certificates = {"artifacts": {"state_map": map_path.name}}
    return _emit_report(
        args, "similar", inputs, _parameters(args, kind=args.kind), tol,
        verdicts, residuals, certificates,
        ["state map saved with intertwining residuals for every block"])


def _parse_inner_spec(spec, tol):
    """Inner function grammar: 'z' or comma-separated zeros in the disc."""
    text = spec.strip()
    if text == "z":
        return blaschke_potapov_factor(0.0, 1.0, [1.0], 1, tol)
    factors = []
    for token in text.split(","):
        token = token.strip()
        try:
            zero = complex(token)
        except ValueError:
            raise InputError(
                f"inner spec token {token!r} is not 'z' or a complex number")
        if abs(zero) >= 1.0:
            raise InputError(
                f"inner spec zero {token!r} must lie in the open disc")
        factors.append(blaschke_potapov_factor(zero, 1.0, [1.0], 1, tol))
    return blaschke_product(factors, tol)


def cmd_example_counter(args):
    tol = _resolve_tolerances(args, None)
    alpha = complex(args.alpha)
    if not 0.0 < abs(alpha) < 1.0:
        raise InputError("--alpha must lie in the punctured open disc")
    a_sys = _parse_inner_spec(args.a, tol)
    b_sys = blaschke_potapov_factor(alpha, 1.0, [1.0], 1, tol)
    ab = cascade(a_sys, b_sys)
    rt = 1.0 / math.sqrt(2.0)
    n = ab.state_dim
    row = Colligation(
        ab.state, 2, 1, ab.A,
        np.hstack([ab.B * rt, np.zeros((n, 1))]),
        ab.C, np.hstack([ab.D * rt, [[rt]]]))
    model = canonical_coisometric_realization(as_transfer(row), tol)
    invb = invert_system(b_sys, tol=tol)
    cas = cascade(model, invb)
    obs = obstruction_observable(model, invb, tol)
    ctrl = obstruction_controllable(adjoint_system(invb),
                                    adjoint_system(model), tol)
    if obs.dimension < 1 or ctrl.dimension < 1:
        raise InternalConsistencyError(
            "expected observability and controllability obstructions of "
            f"dimension at least one, got {obs.dimension} and {ctrl.dimension}")
    out_dir = Path(args.out)
    row_path = save_system(model, out_dir / "example_schur_row.json",
                           name="canonical model of the schur row factor")
    invb_path = save_system(invb, out_dir / "example_inverse_blaschke.json",
                            name="inverse Blaschke factor")
    cas_path = save_system(cas, out_dir / "example_cascade.json",
                           name="counterexample cascade")
    est = negative_squares_estimate(as_transfer(cas), tol)
    verdicts = {
        "obs_obstruction_dimension": obs.dimension,
        "product_observable": False,
        "ctrl_obstruction_dimension": ctrl.dimension,
        "adjoint_product_controllable": False,
        "negative_squares": est.estimate,
        "reproduced": True,
    }
    residuals = {
        "obs_oracle_agreement": obs.agreement_residual,
        "ctrl_oracle_agreement": ctrl.agreement_residual,
    }
    certificates = {
        "schur_row_model": _signature_dict(model),
        "inverse_blaschke": _signature_dict(invb),
        "cascade": _signature_dict(cas),
        "artifacts": {"schur_row": row_path.name,
                      "inverse_blaschke": invb_path.name,
                      "cascade": cas_path.name},
    }
    return _emit_report(
        args, "example-counter", {},
        _parameters(args, alpha=args.alpha, a=args.a), tol, verdicts,
        residuals, certificates,
        ["cascade of an observable schur-row factor with a conservative "
         "inverse Blaschke factor loses observability: the hidden state is "
         "certified by two independent oracles"])


# ---------------------------------------------------------------------------
# argument wiring


def _global_flags(parser):
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="override metric_tol")
    parser.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                        help="override boundary and disc sample counts")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the sampling seed")
    parser.add_argument("--out", type=Path, default=argparse.SUPPRESS,
                        help="directory for reports and constructed systems")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pontsys",
        description="Passive discrete-time systems with Pontryagin state "
                    "spaces: classification, factorization, products, "
                    "embeddings, defects, stability.")
    _global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _global_flags(p)
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify,
                "metric class, Krylov flags, index preservation")
    p.add_argument("path")

    p = command("factor-kl", cmd_factor_kl,
                "two-factor splitting into a Schur part and an inverse "
                "Blaschke part")
    p.add_argument("path")
    p.add_argument("--mode", choices=("right", "left"), default="right")

    p = command("product", cmd_product,
                "cascade two systems and test the product's properties")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--check", choices=("obs", "cont", "simple"),
                   default="obs")

    p = command("negsq", cmd_negsq,
                "negative squares of the transfer function from kernel "
                "inertia")
    p.add_argument("path")

    p = command("julia-embed", cmd_julia_embed,
                "conservative embedding through the defect coordinates")
    p.add_argument("path")

    p = command("defect", cmd_defect,
                "defect functions and boundary sample survey (CSV)")
    p.add_argument("path")

    p = command("stability", cmd_stability,
                "stability class of the main operator flows")
    p.add_argument("path")

    p = command("realize", cmd_realize,
                "state-space realization from a Taylor coefficients file")
    p.add_argument("path")

    p = command("similar", cmd_similar,
                "unitary or weak similarity between two realizations")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--kind", choices=("unitary", "weak"), default="unitary")

    p = command("example-counter", cmd_example_counter,
                "reproduce the non-observable product counterexample")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--a", default="z",
                   help="inner factor: 'z' or comma-separated disc zeros")

    return parser


@functools.cache
def _parser():
    """The process's one parser, built on first use: parsing only reads it,
    and each call parses into a namespace of its own."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    namespace = argparse.Namespace(tol=None, samples=None, seed=None,
                                   out=Path("."))
    args = parser.parse_args(argv, namespace=namespace)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
              file=sys.stderr)
        return 1
    except (PontsysError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
