"""The LAPACK and BLAS routines pontsys calls: scipy's own objects, bound
without the scipy.linalg package, whose __init__ imports numpy.f2py,
numpy.testing and numpy.ma and took most of the start-up.

Only the top-level scipy package is imported, which sets up its bundled
libraries; scipy.linalg._flapack and _fblas are loaded from their files
and registered under their own names, so scipy.linalg reuses them.
"""

import importlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy

__all__ = ["zgees", "zgeev", "zgesvd", "zpotrf", "ztrexc", "ztrsen", "ztrtri",
           "ztrtrs", "dnrm2", "dznrm2"]


def _extension(name, directory):
    """The module scipy.linalg.<name>: the one already imported, else the
    extension file in directory, loaded and registered under that name,
    else, with no such file, the normal import through scipy.linalg."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
    if spec is None:
        return importlib.import_module(fullname)
    module = sys.modules[fullname] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack, _fblas = (_extension(name, os.path.join(scipy.__path__[0], "linalg"))
                    for name in ("_flapack", "_fblas"))
zgees, zgeev, zgesvd, zpotrf, ztrexc, ztrsen, ztrtri, ztrtrs = (
    getattr(_flapack, name) for name in __all__[:8])
dnrm2, dznrm2 = _fblas.dnrm2, _fblas.dznrm2
