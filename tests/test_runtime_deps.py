"""What importing the package loads.

The runtime runs on the standard library alone: numpy is a test-only
dependency (the reference the ridge solver is checked against), so
importing the runtime must not pull it in.  Each entry point also loads
only what it runs: package ``__init__`` modules import none of their
submodules, so the regulator does not bring in the trial fan-out, the
daemon's worker does not bring in the regulator, the wall-clock paths
(the realtime adapter, the live BeNice, the daemon) do not bring in the
simulator, and the CLI loads a command's machinery only when that
command runs.  With telemetry off, a regulating process loads no
``repro.obs`` module but the package and its ``lazy`` accessor.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: The telemetry stack, which a process with telemetry off never builds.
TELEMETRY = (
    "repro.obs.events", "repro.obs.sinks", "repro.obs.telemetry",
    "repro.obs.trace2", "repro.obs.metrics", "repro.obs.flightrec",
    "repro.obs.report",
)

#: What the regulator and the supervisor above it must not load.
REGULATOR_UNWANTED = (
    "multiprocessing", "concurrent.futures", "asyncio", "repro.analysis",
    "repro.experiments", "repro.simos", "repro.apps", "repro.daemon",
    "repro.verify", "repro.faults", *TELEMETRY,
)

#: Modules (and their submodules) each entry point must not load.
UNWANTED = {
    "repro.core.controller": REGULATOR_UNWANTED,
    "repro.core.supervisor": REGULATOR_UNWANTED,
    "repro.experiments.scenarios": (
        "multiprocessing", "concurrent.futures", "asyncio", "repro.analysis",
        "repro.experiments.spec", "repro.experiments.ablations",
        "repro.experiments.related", "repro.daemon", "repro.verify",
        "repro.faults", *TELEMETRY, "repro.simos.network",
        "repro.simos.memory", "repro.simos.wheel", "repro.simos.workload",
        "repro.apps.scanner", "repro.apps.backup", "repro.apps.compressor",
        "repro.apps.archiver", "repro.apps.indexer", "repro.apps.groveler",
        "repro.apps.installer", "repro.apps.dummyload", "repro.benice",
    ),
    "repro.daemon.worker": (
        "repro.core.controller", "repro.simos", "asyncio", "multiprocessing",
    ),
    "repro.daemon.server": ("repro.simos",),
    "repro.realtime.adapter": ("repro.simos", *TELEMETRY),
    "repro.realtime.posix_benice": ("repro.simos", "repro.benice.benice", *TELEMETRY),
    "repro.cli": ("multiprocessing", "repro.analysis", "repro.simos", "repro.experiments"),
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with only ``src`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _loaded_by(statement: str) -> list[str]:
    result = _fresh(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))\n")
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_runtime_imports_without_numpy():
    loaded = _loaded_by("import repro.core, repro.experiments.scenarios, repro.cli")
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


def _under(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


@pytest.mark.parametrize("module", sorted(UNWANTED))
def test_entry_point_loads_only_what_it_runs(module):
    loaded = _loaded_by(f"import {module}")
    assert module in loaded
    assert [m for m in loaded if _under(m, UNWANTED[module])] == []


def _doc_imports() -> list[tuple[str, str]]:
    """``(file:line, line)`` for every ``from repro... import`` line in the docs."""
    found = []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            if re.match(r"\s*from repro[\w.]* import ", line):
                found.append((f"{doc.relative_to(ROOT)}:{number}", line.strip()))
    return found


DOC_IMPORTS = _doc_imports()


def test_docs_import_lines_are_found():
    assert len(DOC_IMPORTS) >= 5


@pytest.mark.parametrize("where, line", DOC_IMPORTS, ids=[w for w, _ in DOC_IMPORTS])
def test_every_documented_import_runs(where, line):
    result = _fresh(line)
    assert result.returncode == 0, f"{where}: {line}\n{result.stderr}"
