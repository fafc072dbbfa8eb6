"""Fingerprint of the 50-scene set, for comparing two versions of the code.

The set is ``random_scene(seed, n, K, order=M)`` for seeds 1-10 and the
shapes (n, K, M) below.  Each scene runs forward, is written as a symbols
document, loaded back and recovered, as the ``forward`` and ``recover``
commands do.  The script prints, as JSON:

* per scene, the SHA-256 of the symbols document (its compact bytes), of
  the recovered document, and of the recovered order-0 block, with the
  stated accuracy of every recovered block;
* per shape, the worst round-trip error (relative, over every recovered
  block against the scene's true boundary jets), the worst imaginary
  residual that recovery discarded, and the summed stated accuracy of the
  recovered blocks.

Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python tests/scene_set.py > scene_set.json
"""

import hashlib
import json
import sys

from elastic_dtn.recovery import recover_full
from elastic_dtn.scenes import block_to_json, canonical_json, random_scene
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_to_json,
    symbols_to_json,
)
from elastic_dtn.symbols import build_context, dtn_symbols

from roundtrip_utils import rel_err, true_inverse_derivatives

SHAPES = ((2, 6, 3), (3, 6, 3), (4, 5, 2), (2, 10, 7), (3, 7, 4))
SEEDS = range(1, 11)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint() -> dict:
    scenes, shapes = {}, {}
    for n, K, M in SHAPES:
        worst_error = worst_imaginary = 0.0
        accuracy = 0
        for seed in SEEDS:
            scene = random_scene(seed, dimension=n, truncation_order=K, order=M)
            levels = dtn_symbols(build_context(scene.metric, scene.lame,
                                               scene.context), M)
            doc = symbols_to_json(levels, scene.lame, scene.context)
            data = recover_full(observed_from_json(doc), M)
            blocks = [data.g_inv, *data.normal_derivs]
            truth = true_inverse_derivatives(scene, M)
            nn = n - 1
            for block, true in zip(blocks, truth):
                for a in range(nn):
                    for b in range(nn):
                        worst_error = max(worst_error,
                                          rel_err(block[a, b], true[a, b]))
            worst_imaginary = max(worst_imaginary,
                                  data.diagnostics["imaginary"])
            accuracy += sum(block.accuracy for block in blocks)
            scenes[f"{n},{K},{M} seed {seed}"] = {
                "symbols": _sha(json.dumps(doc, sort_keys=True,
                                           separators=(",", ":")) + "\n"),
                "recovered": _sha(canonical_json(recovered_to_json(data))),
                "order0": _sha(canonical_json(block_to_json(data.g_inv,
                                                            "g_inv"))),
                "accuracy": [block.accuracy for block in blocks],
            }
        shapes[f"{n},{K},{M}"] = {"roundtrip_error": worst_error,
                                  "imaginary": worst_imaginary,
                                  "accuracy": accuracy}
    return {"scenes": scenes, "shapes": shapes}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(fingerprint(), indent=2) + "\n")
