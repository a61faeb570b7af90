"""Load a script under ``scripts/`` as a module, for the tests that check
its pinned digests."""

import importlib.util
import os
from pathlib import Path


def load_script(name: str):
    """``scripts/<name>.py`` as a module; the BLAS variables it sets on
    import are put back."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module
