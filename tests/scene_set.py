"""Fingerprint of the 50-scene set and the ``configs/`` scenes, for
comparing two versions of the code.

The set is ``random_scene(seed, n, K, order=M)`` for seeds 1-10 and the
shapes (n, K, M) below, and the scenes under ``configs/`` at their own
order; the constant coefficients of ``euclidean`` put zero and constant
operands into the products.  Each scene runs forward, is written as a
symbols document, loaded back and recovered, as the ``forward`` and
``recover`` commands do.  The script prints, as JSON:

* per scene, the SHA-256 of the symbols document (its compact bytes), of
  the recovered document, and of the recovered order-0 block, with the
  stated accuracy of every recovered block;
* per shape, and per config scene, the worst round-trip error (relative,
  over every recovered block against the scene's true boundary jets), the
  worst imaginary residual that recovery discarded, and the summed stated
  accuracy of the recovered blocks.

Run it on two checkouts and compare the outputs:

    PYTHONPATH=src python tests/scene_set.py > scene_set.json

With ``--counts`` it prints instead, per shape and per config scene, the
calls of the jet-product kernel and their pair work (multiply-adds) in one
case, forward plus recover and forward alone, as the mean over its scenes.
Both counts are independent of the machine.  A call's pair work is the
pairs of its product's accuracy times its lead size, or the lead size
times the result length when an operand is constant.
"""

import collections
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from elastic_dtn import jets
from elastic_dtn.recovery import recover_full
from elastic_dtn.scenes import (
    block_to_json,
    canonical_json,
    load_scene,
    random_scene,
)
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_to_json,
    symbols_to_json,
)
from elastic_dtn.symbols import build_context, dtn_symbols

from roundtrip_utils import rel_err, true_inverse_derivatives

SHAPES = ((2, 6, 3), (3, 6, 3), (4, 5, 2), (2, 10, 7), (3, 7, 4))
SEEDS = range(1, 11)
CONFIGS = ("curved_scene", "euclidean", "random_3_5_2", "random_4_5_2")
ROOT = Path(__file__).resolve().parent.parent


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenes():
    """(group, scene name, scene, order) for every scene of the set."""
    for n, K, M in SHAPES:
        for seed in SEEDS:
            scene = random_scene(seed, dimension=n, truncation_order=K, order=M)
            yield f"{n},{K},{M}", f"{n},{K},{M} seed {seed}", scene, M
    for name in CONFIGS:
        scene = load_scene(ROOT / "configs" / f"{name}.json")
        yield f"configs/{name}", f"configs/{name}", scene, scene.order


def _forward(scene, order):
    """The symbols document of a scene."""
    levels = dtn_symbols(build_context(scene.metric, scene.lame,
                                       scene.context), order)
    return symbols_to_json(levels, scene.lame, scene.context)


def _recover(doc, order):
    return recover_full(observed_from_json(doc), order)


def fingerprint() -> dict:
    scenes = {}
    shapes = collections.defaultdict(
        lambda: {"roundtrip_error": 0.0, "imaginary": 0.0, "accuracy": 0})
    for group, name, scene, order in _scenes():
        doc = _forward(scene, order)
        data = _recover(doc, order)
        blocks = [data.g_inv, *data.normal_derivs]
        truth = true_inverse_derivatives(scene, order)
        nn = scene.dimension - 1
        summary = shapes[group]
        for block, true in zip(blocks, truth):
            for a in range(nn):
                for b in range(nn):
                    summary["roundtrip_error"] = max(
                        summary["roundtrip_error"],
                        rel_err(block[a, b], true[a, b]))
        summary["imaginary"] = max(summary["imaginary"],
                                   data.diagnostics["imaginary"])
        summary["accuracy"] += sum(block.accuracy for block in blocks)
        scenes[name] = {
            "symbols": _sha(json.dumps(doc, sort_keys=True,
                                       separators=(",", ":")) + "\n"),
            "recovered": _sha(canonical_json(recovered_to_json(data))),
            "order0": _sha(canonical_json(block_to_json(data.g_inv,
                                                        "g_inv"))),
            "accuracy": [block.accuracy for block in blocks],
        }
    return {"scenes": scenes, "shapes": dict(shapes)}


def product_counts() -> dict:
    """Kernel calls and pair work per case, for every group of scenes."""
    counts = collections.Counter()
    kernel = jets._product

    def counted(context, a, b, accuracy, **kwargs):
        n = context.sizes[accuracy]
        lead = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        counts["calls"] += 1
        if np.count_nonzero(a[..., 1:n]) and np.count_nonzero(b[..., 1:n]):
            left, _, starts = context.mul_table()
            counts["pairs"] += lead * (int(starts[n]) if n < len(starts)
                                       else len(left))
        else:  # the constant-operand shortcut
            counts["pairs"] += lead * n
        return kernel(context, a, b, accuracy, **kwargs)

    totals = collections.defaultdict(collections.Counter)
    jets._product = counted
    try:
        for group, _, scene, order in _scenes():
            counts.clear()
            doc = _forward(scene, order)
            totals[group].update({"forward_" + key: value
                                  for key, value in counts.items()})
            _recover(doc, order)
            totals[group].update(counts, cases=1)
    finally:
        jets._product = kernel
    names = (("product_calls", "calls"), ("pair_work", "pairs"),
             ("forward_product_calls", "forward_calls"),
             ("forward_pair_work", "forward_pairs"))
    return {group: {name: total[key] / total["cases"] for name, key in names}
            for group, total in totals.items()}


if __name__ == "__main__":
    result = product_counts() if sys.argv[1:] == ["--counts"] else fingerprint()
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
