"""The benchmark's set-up probe still runs against the package.

``perfbench/setup_probe.py`` builds the lookup tables of one chart through
``JetContext.mul_table`` and ``diff_table`` in a fresh interpreter, so
renaming either would break the benchmark's ``setup_s`` and nothing else.
Whatever the import itself builds counts in ``setup_s`` too, so it builds
no chart table, and a chart builds its spatial chart's tables only on use.
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


def test_importing_the_package_builds_no_chart_table():
    code = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import elastic_dtn
from elastic_dtn import jets, scenes
builders = (jets._basis, jets._mul_table, jets._diff_table,
            jets._spatial_positions, scenes._key_table)
sizes = [[b.cache_info().currsize for b in builders]]
jets.JetContext(3, 5, (1.0, 1.0))
sizes.append([b.cache_info().currsize for b in builders])
print(json.dumps(sizes))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60)
    imported, chart = json.loads(result.stdout)
    assert imported == [0, 0, 0, 0, 0]
    assert chart == [1, 0, 0, 0, 0]  # the full chart's basis alone
