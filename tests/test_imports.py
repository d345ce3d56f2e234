"""Start-up cost: importing the CLI or the driver loads only the tuning path.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules the tuning path never uses
NOT_LOADED = (
    "scipy",
    "numpy.f2py",
    "numpy.testing",
    "repro.backend.pygen",
    "repro.backend.cgen",
)


def loaded_after(statement: str, block_scipy: bool = False) -> set[str]:
    """Modules loaded after running *statement* in a fresh interpreter (a
    ``None`` entry in ``sys.modules`` blocks an import; it is not loaded)."""
    code = (
        ("import sys; sys.modules['scipy'] = None\n" if block_scipy else "")
        + f"{statement}\nimport json, sys\n"
        "print(json.dumps(sorted(k for k, v in sys.modules.items() if v is not None)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro.cli", "repro.driver.compiler"])
def test_import_loads_no_unused_module(module):
    loaded = loaded_after(f"import {module}")
    assert not loaded & set(NOT_LOADED)


def test_backend_meta_alone_skips_code_generators():
    loaded = loaded_after("import repro.backend.meta")
    assert not loaded & {"repro.backend.pygen", "repro.backend.cgen",
                         "repro.backend.multiversion", "repro.backend.parameterized"}


def test_lazy_package_exports_still_resolve():
    """Every entry of each package's lazy export table resolves to the name
    its submodule defines, so a stale entry fails here, not on first use."""
    import repro

    lazy = [
        info.name
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg and hasattr(importlib.import_module(info.name), "_EXPORTS")
    ]
    assert {"repro.backend", "repro.evaluation", "repro.runtime", "repro.util"} <= set(lazy)
    for package in lazy:
        pkg = importlib.import_module(package)
        for name, submodule in pkg._EXPORTS.items():
            module = importlib.import_module(f"{package}.{submodule}")
            assert getattr(pkg, name) is getattr(module, name), (package, name)


def test_tune_runs_without_scipy():
    loaded = loaded_after(
        "import io\n"
        "from repro.cli import main\n"
        "assert main(['tune', 'mm', '--size', 'N=300'], out=io.StringIO()) == 0",
        block_scipy=True,
    )
    assert "repro.evaluation.simulator" in loaded
    assert not loaded & set(NOT_LOADED)
