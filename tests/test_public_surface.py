"""Every layer's ``__all__`` resolves, and the package re-exports only
names its layers list there.

Tooling that wraps each public function, such as the benchmark's tracer,
looks up every ``__all__`` name with getattr, so one stale entry breaks
every traced run.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pontsys
from pontsys import _lapack

LAYERS = sorted(info.name for info in pkgutil.iter_modules(pontsys.__path__))


def test_layers_are_found():
    assert {"indefinite", "colligation", "julia", "products", "schur",
            "sampling", "cli", "exceptions"} <= set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_name_resolves(layer):
    mod = importlib.import_module(f"pontsys.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pontsys.{layer}.__all__ names missing {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def _package_imports():
    """(layer, name) for every name pontsys/__init__.py imports from a layer."""
    tree = ast.parse(Path(pontsys.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_package_imports_only_public_names():
    imports = list(_package_imports())
    assert imports
    stray = [f"{layer}.{name}" for layer, name in imports
             if name not in importlib.import_module(f"pontsys.{layer}").__all__]
    assert not stray, f"re-exported but not in the layer's __all__: {stray}"


ROOT = Path(__file__).resolve().parents[1]

# Public functions that no route of the package, no demo, no benchmark and
# no CI script calls, kept on purpose.
UNCALLED = {
    # the completion of a bare metric contraction, which julia_embedding
    # applies to a system operator through its private helpers
    ("julia", "julia_operator"),
}


def _layer_of(module):
    """The layer a dotted module path inside the package names, None for
    the package itself."""
    return module.split(".")[1] if "." in module else None


def _called_names(tree, layer=None):
    """(layer, name) of the package functions that tree reads, layer None
    where the name comes from the package's re-exports: a bare name it
    imports from the package, or defines itself when it is that layer's
    own file, or an attribute of a package module it imports.  A local
    variable or argument that shares the name, an attribute of any other
    object, and a read inside the body of the function of that name do
    not count."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "pontsys":
                    modules[alias.asname or alias.name] = _layer_of(alias.name)
                    if not alias.asname:
                        modules["pontsys"] = None
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "pontsys"):
            source = (node.module if node.level else _layer_of(node.module)) or None
            for alias in node.names:
                local = alias.asname or alias.name
                if source is None and alias.name in LAYERS:
                    modules[local] = alias.name
                else:
                    imported[local] = (source, alias.name)
    if layer:
        imported.update((node.name, (layer, node.name)) for node in tree.body
                        if isinstance(node, ast.FunctionDef))
    called = set()
    stack = [(tree, frozenset())]
    while stack:
        node, hidden = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            bound = {n.arg for n in ast.walk(node.args) if isinstance(n, ast.arg)}
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            bound.add(getattr(node, "name", ""))
            hidden = hidden | bound
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in imported and node.id not in hidden):
            called.add(imported[node.id])
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            called.add((modules[ast.unparse(node.value)], node.attr))
        stack.extend((child, hidden) for child in ast.iter_child_nodes(node))
    return called


def _script_calls(text):
    """Names a shell script imports from the package or calls, on its
    lines that are not comments."""
    code = "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith("#"))
    names = set(re.findall(r"\b(\w+)\s*\(", code))
    for group in re.findall(r"\bfrom pontsys[\w.]* import ([\w, ]+)", code):
        names.update(item.split()[0] for item in group.split(",") if item.strip())
    return names


def _uncalled():
    """(layer, name) of every function in a layer's __all__ that no file of
    src/, demos/ or bench/ calls, and that no CI script imports or calls;
    the package's __init__ only re-exports, so it is left out."""
    package = ROOT / "src" / "pontsys"
    files = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    called = set().union(*(
        _called_names(ast.parse(path.read_text()),
                      path.stem if path.parent == package else None)
        for path in files))
    called |= {(None, name) for path in sorted((ROOT / "ci").glob("*.sh"))
               for name in _script_calls(path.read_text())}
    uncalled = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"pontsys.{layer}")
        for name in mod.__all__:
            if (inspect.isfunction(getattr(mod, name))
                    and not {(layer, name), (None, name)} & called):
                uncalled.add((layer, name))
    return uncalled


def test_census_counts_calls_not_mentions():
    # a local variable, an argument or an attribute of another object
    # that shares a function's name is not a call of it
    tree = ast.parse(
        "from pontsys import schur\n"
        "from pontsys.indefinite import inertia as inert\n"
        "def f(x, negsq):\n"
        "    kernel_gram = x.kernel_gram\n"
        "    return kernel_gram, negsq(x), inert(x), schur.defect(x)\n")
    assert _called_names(tree) == {("indefinite", "inertia"), ("schur", "defect")}
    # in a shell script, a comment or a file name is not a call
    script = ("# is_dilation_of(big, small) compressed a dilation\n"
              "pontsys julia-embed in.json --out out  # julia_embedding.json\n"
              "python -c \"from pontsys import load_system, save_system as s; "
              "print(markov(x))\"\n")
    calls = _script_calls(script)
    assert {"load_system", "save_system", "markov"} <= calls
    assert not {"is_dilation_of", "julia_embedding"} & calls


def test_every_public_function_has_a_caller():
    stray = sorted(f"{layer}.{name}" for layer, name in _uncalled() - UNCALLED)
    assert not stray, f"public functions with no caller outside the tests: {stray}"


def test_uncalled_allowlist_is_current():
    # an entry whose function went away, or gained a caller, is stale
    stale = sorted(f"{layer}.{name}" for layer, name in UNCALLED - _uncalled())
    assert not stale, f"allowlisted but called, or not a public function: {stale}"


# Every function of the package that calls a Cholesky factorization
# (zpotrf), a triangular inverse (ztrtri) or a Hermitian eigen-solve
# (eigvalsh, eigh), with the reason it may.  Inside indefinite only the two
# primitives of _hermitian_verdict decompose a Hermitian matrix, so inertia,
# semidefiniteness, factors and subspace kinds have one route.
DECOMPOSITIONS = {
    "indefinite._cholesky": "the Cholesky primitive of the Hermitian verdict",
    "indefinite._eigen": "the eigen-solve primitive of the Hermitian verdict",
    "exceptions._gram_eigenvalues": "squared singular values for norms, from scaled Grams",
    "products._schur_complement": "the factor of I + B^H B, definite by construction",
    "schur._gram_from_values": "the kernel Gram's own certificate, cut at rank_tol",
    "schur._peel": "the peeled metric, whose failed factor is a typed refusal",
    "schur.canonical_coisometric_realization": "the signed root of the model's Gram",
}
_DECOMPOSING = {"zpotrf", "ztrtri", "eigvalsh", "eigh"}


def _call_sites(tree, layer, hit):
    """layer.function, or layer.Class.method, for every function of tree
    whose body, nested definitions included, makes a call that hit
    accepts; a call outside any function counts under its module or
    class."""
    sites = set()
    stack = [(tree, layer, True)]
    while stack:
        node, owner, named = stack.pop()
        if named and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
            named = isinstance(node, ast.ClassDef)
        elif isinstance(node, ast.Call) and hit(node):
            sites.add(owner)
        stack.extend((child, owner, named) for child in ast.iter_child_nodes(node))
    return sites


def _callee(call):
    """The name or attribute a call calls, or None."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _decomposition_sites(tree, layer):
    """The _call_sites of tree that call a name or attribute in _DECOMPOSING."""
    return _call_sites(tree, layer, lambda call: _callee(call) in _DECOMPOSING)


def test_decomposition_census_reads_calls():
    tree = ast.parse(
        "from scipy.linalg.lapack import zpotrf\n"
        "import numpy as np\n"
        "def f(x):\n"
        "    def inner(y):\n"
        "        return np.linalg.eigh(y)\n"
        "    return inner(x)\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        return zpotrf(x)\n"
        "def h(eigh):\n"
        "    return eigh\n"
        "np.linalg.eigvalsh(np.eye(2))\n")
    assert _decomposition_sites(tree, "m") == {"m.f", "m.K.g", "m"}


def test_hermitian_decompositions_have_one_route_in_indefinite():
    package = ROOT / "src" / "pontsys"
    sites = set().union(*(_decomposition_sites(ast.parse(path.read_text()), path.stem)
                          for path in sorted(package.glob("*.py"))))
    assert sites == set(DECOMPOSITIONS), (
        f"unlisted: {sorted(sites - set(DECOMPOSITIONS))}, "
        f"stale: {sorted(set(DECOMPOSITIONS) - sites)}")


# One sampling primitive: every transfer value and every resolvent sample
# is a sweep of its drive by colligation._sweep.  The identity is swept
# only by the cluster passes of _sample_points, at the points of the
# eigenvalues it measures; no reader of identity sweeps is left.

def _sweeps_identity(call):
    """Whether a call is a _sweep whose drive, its second argument, is an
    identity built in place by eye."""
    return (_callee(call) == "_sweep" and len(call.args) > 1
            and isinstance(call.args[1], ast.Call) and _callee(call.args[1]) == "eye")


def test_identity_sweep_census_reads_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(system, z, tol):\n"
        "    def inner():\n"
        "        return _sweep(system, np.eye(3), z, tol)\n"
        "    return inner()\n"
        "def g(system, W, z, tol):\n"
        "    return _sweep(system, W, z, tol), np.eye(2)\n"
        "def h(system, z, tol):\n"
        "    return colligation._sweep(system, eye(4), z, tol)\n")
    assert _call_sites(tree, "m", _sweeps_identity) == {"m.f", "m.h"}


def test_only_the_cluster_passes_sweep_the_identity():
    package = ROOT / "src" / "pontsys"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    sites = set().union(*(_call_sites(tree, layer, _sweeps_identity)
                          for layer, tree in trees.items()))
    assert sites == {"colligation._sample_points"}
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for tree in trees.values() for node in ast.walk(tree)}
    assert "_sweep" in names and "_resolvent_samples" not in names


# One singular-value route: every spectral norm is read off the scaled
# Gram eigenvalues of exceptions._gram_eigenvalues, and every rank cut
# rank_tol * max(1, s_0) is indefinite._rank_cut.  The SVDs left are the
# rank and basis decisions that need small singular values or singular
# vectors, each in a function listed here with the reason it may.
SVD_SITES = {
    "colligation._sweep": "the pole rule's s_min where its comparison bound leaves it open",
    "colligation._krylov_basis": "the singular vectors and deflation of each Arnoldi block",
    "colligation.unitary_similarity": "the samples' pseudo-inverse and the complement of their span",
    "colligation._weak_map": "the weak map's smallest singular value; its s_0 is the map's norm",
    "colligation.realize_from_taylor": "the Hankel windows' ranks and the factors of one",
    "indefinite.IndefiniteSubspace.__post_init__": "the smallest singular value of a basis",
    "indefinite.nullspace": "the trailing right singular vectors",
    "indefinite.column_space": "the leading left singular vectors",
    "schur.invert_system": "the smallest singular value of the feedthrough",
    "sampling.random_j_contraction": "a random matrix with drawn singular values",
}
# The functions that scale rank_tol by max(1, ...) of something other than
# singular values: the Frobenius norms of a system's blocks, which cut the
# Arnoldi and Hautus spans.
FROBENIUS_CUTS = {
    "colligation._krylov_basis", "colligation._reached", "colligation._hidden_split",
    "products._antihilbert_conservative_minimal", "schur._reflect_poles",
}


def _is_spectral_norm(call):
    """Whether a call is a norm(x, 2) or norm(x, ord=2), or reads a BLAS
    nrm2."""
    if _callee(call) in {"dnrm2", "dznrm2", "nrm2"}:
        return True
    order = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "ord"), None)
    return _callee(call) == "norm" and order is not None and ast.unparse(order) in {"2", "-2"}


def _is_svd(call):
    return _callee(call) in {"svd", "zgesvd", "svdvals"}


def _cut_scales(tree, layer):
    """(site, scale) for every product of a rank_tol and a max or maximum
    call with a 1.0 among its arguments, scale "singular" when another
    argument is a subscript or a max call (a largest singular value or
    eigenvalue modulus) and "other" when not."""
    found = set()
    stack = [(tree, layer, True)]
    while stack:
        node, owner, named = stack.pop()
        if named and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
            named = isinstance(node, ast.ClassDef)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and "rank_tol" in ast.unparse(node)):
            for side in (node.left, node.right):
                if (isinstance(side, ast.Call) and _callee(side) in {"max", "maximum"}
                        and any(isinstance(a, ast.Constant) and a.value == 1.0
                                for a in side.args)):
                    singular = any(isinstance(a, ast.Subscript) or (
                        isinstance(a, ast.Call) and _callee(a) in {"max", "float"})
                        for a in side.args)
                    found.add((owner, "singular" if singular else "other"))
        stack.extend((child, owner, named) for child in ast.iter_child_nodes(node))
    return found


def _package_trees():
    package = ROOT / "src" / "pontsys"
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_norm_and_rank_census_reads_the_code():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(M, tol):\n"
        "    s = np.linalg.svd(M, compute_uv=False)\n"
        "    return np.linalg.norm(M, 2), tol.rank_tol * max(1.0, s[0])\n"
        "def g(M, tol):\n"
        "    return np.linalg.norm(M, ord=-2), np.linalg.norm(M, axis=0)\n"
        "def h(x, tol, A):\n"
        "    return dznrm2(x), tol.rank_tol * max(1.0, _fro(A))\n"
        "def k(w, tol):\n"
        "    return tol.rank_tol * np.maximum(1.0, float(np.max(np.abs(w))))\n")
    assert _call_sites(tree, "m", _is_spectral_norm) == {"m.f", "m.g", "m.h"}
    assert _call_sites(tree, "m", _is_svd) == {"m.f"}
    assert _cut_scales(tree, "m") == {("m.f", "singular"), ("m.h", "other"),
                                      ("m.k", "singular")}


def test_one_singular_value_route():
    trees = _package_trees()
    norms = set().union(*(_call_sites(tree, layer, _is_spectral_norm)
                          for layer, tree in trees.items()))
    assert not norms, f"spectral norms outside exceptions._gram_eigenvalues: {sorted(norms)}"
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for tree in trees.values() for node in ast.walk(tree)}
    assert not {name for name in names if name and "nrm2" in name}
    svds = set().union(*(_call_sites(tree, layer, _is_svd) for layer, tree in trees.items()))
    assert svds == set(SVD_SITES), (
        f"unlisted: {sorted(svds - set(SVD_SITES))}, stale: {sorted(set(SVD_SITES) - svds)}")


def test_one_rank_cut():
    cuts = set().union(*(_cut_scales(tree, layer) for layer, tree in _package_trees().items()))
    assert {site for site, scale in cuts if scale == "singular"} == {"indefinite._rank_cut"}
    assert {site for site, scale in cuts if scale == "other"} == FROBENIUS_CUTS


# The package binds its LAPACK routines from scipy's f2py extension,
# loaded without the scipy.linalg package, whose __init__ imports
# numpy.f2py, numpy.testing and numpy.ma and dominates start-up.  No BLAS
# extension is loaded.

def _run(code):
    """Run code in a fresh interpreter with the package on its path."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_scipy_linalg_unimported():
    _run("import sys\n"
         "import pontsys.cli\n"
         "names = set(sys.modules)\n"
         "assert not {'scipy.linalg', 'numpy.f2py', 'numpy.testing'} & names, names\n"
         "linalg = {n for n in names if n.startswith('scipy.linalg.')}\n"
         "assert linalg == {'scipy.linalg._flapack'}, linalg\n")


def test_later_scipy_linalg_import_binds_its_blas():
    # _fblas is not preloaded, so the package's own import loads and binds it
    _run("import sys\n"
         "import pontsys.cli\n"
         "from pontsys import _lapack\n"
         "assert 'scipy.linalg._fblas' not in sys.modules and not hasattr(_lapack, '_fblas')\n"
         "import scipy.linalg\n"
         "assert scipy.linalg._fblas is sys.modules['scipy.linalg._fblas']\n"
         "assert scipy.linalg.blas.dznrm2 is scipy.linalg._fblas.dznrm2\n"
         "assert scipy.linalg.lapack.zgees is _lapack.zgees\n")


def test_routines_are_scipys_own():
    import scipy.linalg.lapack

    assert len(_lapack.__all__) == 8
    for name in _lapack.__all__:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name), name


def test_imported_extensions_are_reused():
    # after scipy.linalg, the package loads no extension file again
    _run("import sys\n"
         "from importlib.machinery import ExtensionFileLoader\n"
         "import scipy.linalg\n"
         "before = sys.modules['scipy.linalg._flapack']\n"
         "create = ExtensionFileLoader.create_module\n"
         "def once(self, spec):\n"
         "    assert not spec.name.startswith('scipy.linalg.'), spec.name\n"
         "    return create(self, spec)\n"
         "ExtensionFileLoader.create_module = once\n"
         "import pontsys.cli\n"
         "from pontsys import _lapack\n"
         "assert _lapack._flapack is before and not hasattr(_lapack, '_fblas')\n"
         "assert _lapack.zgees is scipy.linalg.lapack.zgees\n")


def test_missing_extension_file_falls_back_to_the_package(tmp_path):
    # with no file in the directory given, the normal import runs the
    # package __init__ and registers the extension under its own name
    _run("import sys\n"
         "from pontsys import _lapack\n"
         "del sys.modules['scipy.linalg._flapack']\n"
         f"flapack = _lapack._extension('_flapack', {str(tmp_path)!r})\n"
         "assert 'scipy.linalg' in sys.modules\n"
         "assert flapack is sys.modules['scipy.linalg._flapack'] is not _lapack._flapack\n"
         "for name in _lapack.__all__:\n"
         "    assert getattr(flapack, name) is getattr(_lapack, name), name\n")
