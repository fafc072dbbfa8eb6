"""The CLI writes the bytes recorded in ``tests/output_hashes.json``.

For each scene under ``configs/`` the file holds the exit code and the
SHA-256 of what ``forward``, ``recover`` (with and without
``--cross-check``), ``roundtrip`` and ``verify`` write: the documents for
the first two, the reports on stdout for the last two.  Regenerate it only
with a change that alters the output on purpose and says so:

    PYTHONPATH=src python tests/test_output_hashes.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from elastic_dtn.cli import main

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "output_hashes.json"
SCENES = ("curved_scene", "euclidean", "random_3_5_2", "random_4_5_2")


def _run(argv: list) -> tuple[int, bytes]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue().encode("utf-8")


def outputs(scene: str, workdir: Path) -> dict:
    """``{step: [exit code, sha256]}`` for every command on one scene."""
    config = ROOT / "configs" / f"{scene}.json"
    order = str(json.loads(config.read_text())["order"])
    symbols, recovered = workdir / "symbols.json", workdir / "recovered.json"
    steps = {
        "forward": (["forward", "--config", str(config), "--out", str(symbols)],
                    symbols),
        "recover": (["recover", "--symbols", str(symbols), "--order", order,
                     "--out", str(recovered)], recovered),
        "recover --cross-check": (["recover", "--symbols", str(symbols),
                                   "--order", order, "--cross-check",
                                   "--out", str(recovered)], recovered),
        "roundtrip": (["roundtrip", "--config", str(config), "--order", order],
                      None),
        "verify": (["verify", "--config", str(config)], None),
    }
    result = {}
    for step, (argv, path) in steps.items():
        code, stdout = _run(argv)
        data = path.read_bytes() if path is not None else stdout
        result[step] = [code, hashlib.sha256(data).hexdigest()]
    return result


@pytest.mark.parametrize("scene", SCENES)
def test_cli_outputs_match_the_recorded_hashes(tmp_path, scene):
    assert outputs(scene, tmp_path) == json.loads(HASHES.read_text())[scene]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {scene: outputs(scene, Path(tmp)) for scene in SCENES}
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {HASHES}\n")
