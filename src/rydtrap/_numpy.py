"""Lazy modules: numpy, and the rydtrap modules, each run the first time
one of its attributes is used.

lazy_module(name) returns the module if it is already imported; otherwise
it puts in sys.modules a lazy module (importlib.util.LazyLoader) that runs
the module's code on its first attribute access. Every rydtrap module takes
np from here, so forster, autoion, pi-fit, angular-table and --version,
which do no array math, never pay numpy's import. rydtrap/__init__
registers its own modules the same way, so a command runs only the modules
it touches, and each of them is still in sys.modules, where
perfbench/traced.py looks it up.
"""

import importlib.util
import sys


def lazy_module(name):
    """sys.modules[name], registered there as a lazy module if absent."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
