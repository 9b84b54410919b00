"""Every script under ``examples/`` runs and prints what it promises."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: One line each example must print.
EXPECTED = {
    "document_search.py": (
        "result overlap: 4/5; documents only semantic search finds: [49]"
    ),
    "fig1_worked_example.py": "top-1 by semantic overlap: C2",
    "joinable_table_search.py": "  sales.clients.location       SO = 4.626",
    "many_to_one_extension.py": (
        "many-to-one extension (§X)               : 4.53"
    ),
    "quickstart.py": "  west_coast_cities    SO = 4.000  (exact=True)",
}


def test_every_example_is_checked():
    scripts = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
    assert scripts == sorted(EXPECTED)


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert EXPECTED[script] in done.stdout.splitlines(), done.stdout
