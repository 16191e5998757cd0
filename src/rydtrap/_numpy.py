"""numpy, loaded the first time one of its attributes is used.

Every rydtrap module takes np from here. If numpy is already imported, np
is that module; otherwise np is a lazy module that runs numpy's __init__
on its first attribute access. So forster, autoion, pi-fit, angular-table
and --version, which do no array math, never pay numpy's import.

Only numpy waits: rydtrap and its CLI still import every rydtrap module
eagerly, because perfbench/traced.py looks each module up in sys.modules
right after `import rydtrap.cli` and rebinds its functions.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
