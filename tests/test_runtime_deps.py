"""The package runs on the standard library alone.

numpy is a test-only dependency (the reference the ridge solver is checked
against); importing the runtime must not pull it in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def test_runtime_imports_without_numpy():
    code = (
        "import sys\n"
        "import repro.core, repro.experiments.scenarios, repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
