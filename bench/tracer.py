"""Span tracer that wraps the pontsys layers from outside the package.

Every function named in ``pontsys.<layer>.__all__`` is replaced by a
timing wrapper at every place it is bound in the loaded ``pontsys.*``
namespaces, so calls made inside the package (for example
``TransferFunction.__call__`` reaching ``transfer_eval`` through the
``schur`` module globals) are seen as well as calls from the benchmark.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

A span is (name, layer, start, end, parent, job, items, error): parent
is the index of the enclosing span or -1, items a work count where one is
defined (sample points for ``kernel_gram``), error the exception type
name when the call raised.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("indefinite", "colligation", "julia", "products", "schur", "sampling", "cli")


def _items(name, result):
    if name == "kernel_gram":
        return (int(result.points.size), int(result.matrix.shape[0]))
    return None


def _bindings():
    """Every (module, attribute) holding a pontsys function."""
    return [(mod, attr, val) for modname, mod in list(sys.modules.items())
            if modname == "pontsys" or modname.startswith("pontsys.")
            for attr, val in list(vars(mod).items()) if inspect.isfunction(val)]


def replace_everywhere(originals, make):
    """Bind make(fn) in place of each function in ``originals`` (a dict
    fn -> (name, layer)) wherever pontsys binds it; returns an undo list."""
    made = {fn: make(fn, *meta) for fn, meta in originals.items()}
    undo = []
    for mod, attr, val in _bindings():
        if val in made:
            setattr(mod, attr, made[val])
            undo.append((mod, attr, val))
    return undo


def restore(undo):
    for mod, attr, val in undo:
        setattr(mod, attr, val)


def layer_functions():
    """Map each public function of every layer to (name, layer)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"pontsys.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[fn] = (name, layer)
    return out


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def install(self):
        self._undo = replace_everywhere(layer_functions(), self._wrap)

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def _wrap(self, fn, name, layer):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                items = _items(name, result) if error is None else None
                spans[idx] = (name, layer, start, end, parent, self.job, items, error)

        return traced

    def write(self, path):
        keys = ("name", "layer", "start", "end", "parent", "job", "items", "error")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans, wall):
    """Per-layer metrics of one traced pass whose jobs took ``wall`` seconds."""
    n = len(spans)
    child = [0.0] * n
    for name, layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = [s[3] - s[2] - child[i] for i, s in enumerate(spans)]

    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    for i, (name, layer, *_rest) in enumerate(spans):
        layer_self[layer] += self_time[i]
        layer_calls[layer] += 1
        fn_self[(layer, name)] += self_time[i]
        fn_calls[(layer, name)] += 1

    rejected = sum(1 for s in spans if s[0] == "transfer_eval" and s[7] == "PoleProximityError")
    points = sum(s[6][0] for s in spans if s[0] == "kernel_gram" and s[6])

    # Gram entries built across the doubling stages of each estimate,
    # against the entries of the final Gram of that estimate
    grams = defaultdict(list)
    for s in spans:
        if s[0] == "kernel_gram" and s[6] and s[4] >= 0 and spans[s[4]][0] == "negative_squares_estimate":
            grams[s[4]].append(s[6][1] ** 2)
    built = sum(sum(v) for v in grams.values())
    final = sum(v[-1] for v in grams.values())

    # a factorization rebuilt a canonical model when one ran beneath it
    kl = [i for i, s in enumerate(spans) if s[0] == "kl_factorize_function"]
    rebuilt = set()
    for i, s in enumerate(spans):
        if s[0] == "canonical_coisometric_realization":
            p = s[4]
            while p >= 0:
                if spans[p][0] == "kl_factorize_function":
                    rebuilt.add(p)
                p = spans[p][4]
    top = sum(s[3] - s[2] for s in spans if s[4] < 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.calls"] = (layer_calls[layer], "count")
    m["colligation.transfer_eval.calls"] = (fn_calls[("colligation", "transfer_eval")], "count")
    m["colligation.transfer_eval.self_s"] = (fn_self[("colligation", "transfer_eval")], "s")
    m["colligation.transfer_eval.rejected"] = (rejected, "count")
    m["colligation.classify.self_s"] = (fn_self[("colligation", "classify")], "s")
    m["indefinite.metric_classify.calls"] = (fn_calls[("indefinite", "metric_classify")], "count")
    m["schur.kernel_gram.points"] = (points, "count")
    m["schur.kernel_gram.self_s"] = (fn_self[("schur", "kernel_gram")], "s")
    m["schur.negsq.gram_rework"] = (built / final if final else 0.0, "ratio")
    m["schur.boundary_behavior.self_s"] = (fn_self[("schur", "boundary_behavior")], "s")
    m["schur.defect.self_s"] = (fn_self[("schur", "defect")], "s")
    m["schur.canonical_coisometric_realization.self_s"] = (
        fn_self[("schur", "canonical_coisometric_realization")], "s")
    m["schur.kl_factorize_function.rebuild_share"] = (
        len(rebuilt) / len(kl) if kl else 0.0, "ratio")
    m["products.kl_factorize_system.self_s"] = (fn_self[("products", "kl_factorize_system")], "s")
    m["products.invariant_fundamental_decompositions.self_s"] = (
        fn_self[("products", "invariant_fundamental_decompositions")], "s")
    m["sampling.disc_points.self_s"] = (fn_self[("sampling", "disc_points")], "s")
    m["bench.self_s"] = (wall - top, "s")
    m["trace.wall_s"] = (wall, "s")
    return m
