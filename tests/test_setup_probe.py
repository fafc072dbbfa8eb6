"""The benchmark's set-up probe still runs against the package.

``perfbench/setup_probe.py`` builds the lookup tables of one chart through
``JetContext.mul_table`` and ``diff_table`` in a fresh interpreter, so
renaming either would break the benchmark's ``setup_s`` and nothing else.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_probe_reports_the_package_under_src():
    src = ROOT / "src"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(src),
         "2", "4"],
        capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(result.stdout)
    assert Path(report["module"]).resolve().is_relative_to(src)
    assert report["setup_s"] > 0
    assert report["setup_s"] >= report["tables_s"] > 0
