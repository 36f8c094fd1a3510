"""numpy, imported on first use: `np` is numpy itself once numpy is
imported, else a `LazyLoader` module whose real import runs on its first
attribute read. So `import ladrating`, `classify`, `suggest` and the tree
commands never load numpy. The rule that keeps this true: no module-level
`np.` reads (annotations are strings under `from __future__ import
annotations`). The lazy first load is not thread-safe before Python 3.12;
the package is single-threaded."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
