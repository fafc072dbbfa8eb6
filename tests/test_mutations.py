"""Single mutations of valid documents: the loaders raise only SceneError.

Each example walks from the root of a valid scene, symbols or recovered
document to one node and replaces it, deletes it or adds a sibling.  The
values are the shapes that break loaders: wrong JSON types, non-finite and
huge numbers, integers too large for a float, and keys that look almost
right; a key can also be renamed to one of those.
"""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_dtn.recovery import ObservedSymbols, recover_full
from elastic_dtn.scenes import (
    SceneError,
    random_scene,
    scene_from_json,
    scene_to_json,
)
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_from_json,
    recovered_to_json,
    symbols_to_json,
)
from elastic_dtn.symbols import build_context, dtn_symbols

VALUES = [None, True, False, 0, 1, -1, 2, 3, 10 ** 400, 0.5, -2.5, 1e300,
          -1.7976931348623157e308, float("nan"), float("inf"), "", "x", "1",
          "1,1", "0 0 0 0 0", [], {}, [1.0], [1.0, 0.0], [1e308, -1e308],
          [True, 0], ["1", "0"], [[{}]], {"0 0 0 0 0": 1.0},
          {"1,1": {"0 0 0 0 0": 1.0}}]
KEYS = ["", "x", "0", "1", "-1", "+1", " 1", "01", "9", "1,1", "1,2", "2,1",
        "2,2", "3,3", "0 0 0 0 0", "1 0 0 0 0", "5 0 0 0 0", "² 0 0 0 0",
        "g_inv", "accuracy", "chart", "tolerances"]

MUTATION_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=150)


@functools.cache
def documents() -> dict:
    """One valid document of each kind, from a (3,4,1) scene."""
    scene = random_scene(5, dimension=3, truncation_order=4, order=1)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    levels = dtn_symbols(ctx, 1)
    data = recover_full(ObservedSymbols(levels, scene.lame, scene.context), 1)
    return {"scene": scene_to_json(scene),
            "symbols": symbols_to_json(levels, scene.lame, scene.context),
            "recovered": recovered_to_json(data)}


@st.composite
def mutated(draw, kind: str):
    """A copy of a valid document with one value replaced, deleted or added,
    or one key renamed."""
    doc = documents()[kind]
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        node = node[key]
    op = draw(st.sampled_from(["replace", "delete", "add", "rename"]))
    value = draw(st.sampled_from(VALUES))
    if not path:
        return value if op == "replace" else doc
    # copy only the containers on the path; the rest is shared and unchanged
    root = copy = type(doc)(doc)
    for key in path[:-1]:
        copy[key] = type(copy[key])(copy[key])
        copy = copy[key]
    last = path[-1]
    if op == "replace":
        copy[last] = value
    elif op == "delete":
        del copy[last]
    elif op == "rename" and isinstance(copy, dict):
        copy[draw(st.sampled_from(KEYS))] = copy.pop(last)
    elif isinstance(copy, dict):
        copy[draw(st.sampled_from(KEYS))] = value
    else:
        copy.insert(last, value)
    return root


def _only_scene_errors(load, doc):
    """What ``load`` returns for ``doc``, or None if it raised SceneError."""
    try:
        return load(doc)
    except SceneError:
        return None


def _with_level_one_renamed(key: str) -> dict:
    doc = dict(documents()["symbols"])
    for block in ("levels", "accuracy"):
        doc[block] = {key if k == "1" else k: v for k, v in doc[block].items()}
    return doc


@MUTATION_SETTINGS
@given(mutated("scene"))
def test_scene_loader_raises_only_scene_errors(doc):
    _only_scene_errors(scene_from_json, doc)


@MUTATION_SETTINGS
@given(mutated("symbols"))
@example(_with_level_one_renamed("+1"))
def test_symbols_loader_raises_only_scene_errors(doc):
    observed = _only_scene_errors(observed_from_json, doc)
    if observed is not None:  # each level has exactly one key, its degree
        assert set(doc["levels"]) == {str(d) for d in observed.p.levels}


@MUTATION_SETTINGS
@given(mutated("recovered"))
def test_recovered_loader_raises_only_scene_errors(doc):
    _only_scene_errors(recovered_from_json, doc)
