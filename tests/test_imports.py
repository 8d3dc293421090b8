"""What ``import narxmpc`` loads.

``scipy.stats`` alone took more than half of the package's import time,
and the package needs none of it (the Halton points come from
:class:`narxmpc.twotank.ScrambledHalton`).  The check runs in a fresh
interpreter, because this suite itself imports ``scipy.stats``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import narxmpc, narxmpc.cli
print(json.dumps({"file": narxmpc.__file__, "modules": sorted(sys.modules)}))
"""


def test_package_and_cli_import_without_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert Path(loaded["file"]).resolve().is_relative_to(SRC.resolve())
    assert "scipy.stats" not in loaded["modules"]
