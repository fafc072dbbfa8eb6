"""Single mutations of valid documents: the loaders raise only SceneError.

Each example walks from the root of a valid scene, symbols or recovered
document to one node and replaces it, deletes it or adds a sibling.  The
values are the shapes that break loaders: wrong JSON types, non-finite and
huge numbers, integers too large for a float, and keys that look almost
right; a key can also be renamed to one of those.  Symbols documents are
mutated in both schemas the loader reads: schema 2, as written now, and a
schema-1 document written before levels were stored on the hyperplane.

Every example is loaded twice, with the package's coefficient-map codec
and with the plain loops below as its oracle: the two must agree on the
verdict, on the error text and on every coefficient bit.
"""

import contextlib
import copy
import functools
import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_dtn import scenes, serialize
from elastic_dtn.cli import main
from elastic_dtn.jets import ZERO_COEFF_TOL, Jet, JetContext, _basis
from elastic_dtn.recovery import ObservedSymbols, recover_full
from elastic_dtn.scenes import (
    SceneConfig,
    SceneError,
    complex_from_json,
    jet_from_map,
    jet_to_map,
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
          [True, 0], [True, 0.0], [1, 0], [-0.0, 5e-324], [1.0, 0.0, 0.0],
          [float("nan"), 0.0], [0.5, float("-inf")],
          ["1", "0"], [[{}]], {"0 0 0 0 0": 1.0},
          {"1,1": {"0 0 0 0 0": 1.0}}]
KEYS = ["", "x", "0", "1", "-1", "+1", " 1", "01", "9", "1,1", "1,2", "2,1",
        "2,2", "3,3", "0 0 0 0 0", "1 0 0 0 0", "5 0 0 0 0", "² 0 0 0 0",
        "01 0 0 0 0", "0 0 0 0 00", "0 0 0 0 1", "0 0 0 0", "1 0 0 0",
        "0 0 0 1", "5 0 0 0", "g_inv", "accuracy", "chart", "tolerances"]
DATA = Path(__file__).resolve().parent / "data"

MUTATION_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=150)


@functools.cache
def documents() -> dict:
    """One valid document of each kind, from a (3,4,1) scene; "symbols1" is
    the schema-1 symbols document of the same scene, as written before
    levels were stored on the hyperplane."""
    scene = random_scene(5, dimension=3, truncation_order=4, order=1)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    levels = dtn_symbols(ctx, 1)
    data = recover_full(ObservedSymbols(levels, scene.lame, scene.context), 1)
    old = json.loads((DATA / "symbols-schema1-3-4-1-seed5.json").read_text())
    return {"scene": scene_to_json(scene),
            "symbols": symbols_to_json(levels, scene.lame, scene.context),
            "symbols1": old,
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


def _padding(context: JetContext) -> int:
    """A jet of x alone keys n - 1 zero cotangent exponents after its
    x-exponents; a full-chart jet keys its own variables."""
    return 0 if context.full is context else context.dimension - 1


def oracle_to_map(jet: Jet) -> dict:
    """The coefficient map of ``jet``, one coefficient at a time."""
    out = {}
    pad = (0,) * _padding(jet.context)
    for exps, value in jet.coefficients().items():
        if value == 0:
            continue
        out[" ".join(str(e) for e in exps + pad)] = [value.real, value.imag]
    return out


def _oracle_coefficients(nvars: int, pad: int, K: int, data: dict,
                         where: str) -> dict:
    """The coefficient of each exponent tuple of a map whose keys have
    ``nvars`` exponents and then ``pad`` padding exponents, each key split
    and parsed on its own.

    The padding exponents, the cotangent exponents of a jet of x alone, may
    only carry coefficients of at most ZERO_COEFF_TOL, which are dropped.
    """
    if not isinstance(data, dict):
        raise SceneError(f"{where}: expected a coefficient map, got {type(data).__name__}")
    width = nvars + pad
    coeffs = {}
    for key, value in data.items():
        parts = key.split(" ")
        exps = tuple(int(p) for p in parts
                     if p.isascii() and p.isdigit() and p == str(int(p)))
        if len(exps) != len(parts) or len(exps) != width:
            raise SceneError(
                f"{where}: bad exponent key {key!r} (need {width} "
                f"non-negative integers, single-spaced, no leading zeros)")
        if sum(exps) > K:
            raise SceneError(
                f"{where}: exponent key {key!r} exceeds truncation order {K}")
        value = complex_from_json(value, f"{where}[{key!r}]")
        if any(exps[nvars:]):
            if abs(value) > ZERO_COEFF_TOL:
                raise SceneError(f"{where}: exponent key {key!r} names a "
                                 f"cotangent variable of a jet of x alone")
            continue
        coeffs[exps[:nvars]] = value
    return coeffs


def oracle_from_map(context: JetContext, data: dict, where: str = "jet",
                    accuracy: int | None = None) -> Jet:
    """The jet of a coefficient map on ``context``."""
    coeffs = _oracle_coefficients(context.nvars, _padding(context),
                                  context.truncation_order, data, where)
    return Jet.from_coefficients(context, coeffs, accuracy)


def oracle_map_entries(layout: tuple, data: dict, where: str):
    """(basis positions, values) of a coefficient map over ``layout``, the
    (nvars, K, pad) of its keys, as symbols-document levels are read."""
    nvars, K, pad = layout
    coeffs = _oracle_coefficients(nvars, pad, K, data, where)
    index = _basis(nvars, K)[1]
    return (np.array([index[exps] for exps in coeffs], dtype=np.int64),
            np.array(list(coeffs.values()), dtype=np.complex128))


@contextlib.contextmanager
def _oracle_codec():
    with mock.patch.object(scenes, "jet_from_map", oracle_from_map), \
            mock.patch.object(serialize, "jet_from_map", oracle_from_map), \
            mock.patch.object(serialize, "map_entries", oracle_map_entries):
        yield


def _bits(loaded) -> list:
    """Accuracy, shape and raw bytes of every coefficient array loaded."""
    if isinstance(loaded, SceneConfig):
        arrays = [loaded.metric.tangential_matrix(), loaded.lame.lam,
                  loaded.lame.mu]
    elif isinstance(loaded, ObservedSymbols):
        arrays = [*loaded.p.levels.values(), loaded.lame.lam, loaded.lame.mu]
    else:
        arrays = [loaded.g_inv, *loaded.normal_derivs]
    return [(a.accuracy, a.coeffs.shape, a.coeffs.tobytes()) for a in arrays]


def _only_scene_errors(load, doc):
    """What ``load`` returns for ``doc``, or None if it raised SceneError.

    The oracle codec must give the same SceneError text, or the same bits.
    """
    results = []
    for codec in (contextlib.nullcontext(), _oracle_codec()):
        with codec:
            try:
                results.append(load(doc))
            except SceneError as exc:
                results.append(f"SceneError: {exc}")
    loaded, expected = results
    if isinstance(loaded, str) or isinstance(expected, str):
        assert loaded == expected
        return None
    assert _bits(loaded) == _bits(expected)
    return loaded


def _with_renamed(block_names, old: str, new: str) -> dict:
    doc = dict(documents()["symbols"])
    for block in block_names:
        doc[block] = {new if k == old else k: v for k, v in doc[block].items()}
    return doc


def _without_accuracy() -> dict:
    doc = dict(documents()["symbols"])
    del doc["accuracy"]
    return doc


@MUTATION_SETTINGS
@given(mutated("scene"))
def test_scene_loader_raises_only_scene_errors(doc):
    _only_scene_errors(scene_from_json, doc)


def _check_symbols_loader(doc):
    observed = _only_scene_errors(observed_from_json, doc)
    if observed is not None:  # each level has exactly one key, its degree,
        assert set(doc["levels"]) == {str(d) for d in observed.p.levels}
        # and its own trusted degree and homogeneity degree
        assert doc["accuracy"] == {str(d): m.accuracy
                                   for d, m in observed.p.levels.items()}
        assert all(m.degree == d for d, m in observed.p.levels.items())


@MUTATION_SETTINGS
@given(mutated("symbols"))
@example(_with_renamed(("levels", "accuracy"), "1", "+1"))
@example(_with_renamed(("accuracy",), "0", "+1"))
@example(_without_accuracy())
def test_symbols_loader_raises_only_scene_errors(doc):
    _check_symbols_loader(doc)


@MUTATION_SETTINGS
@given(mutated("symbols1"))
def test_schema1_symbols_loader_raises_only_scene_errors(doc):
    _check_symbols_loader(doc)


@MUTATION_SETTINGS
@given(mutated("recovered"))
def test_recovered_loader_raises_only_scene_errors(doc):
    _only_scene_errors(recovered_from_json, doc)


LOADERS = {"scene": scene_from_json, "symbols": observed_from_json,
           "symbols1": observed_from_json, "recovered": recovered_from_json}


JET_MAP_PATHS = {"scene": ["lambda"], "symbols": ["levels", "1", 0, 0],
                 "symbols1": ["levels", "1", 0, 0],
                 "recovered": ["g_inv", "1,1"]}


def _first_jet_map(doc: dict, kind: str) -> dict:
    for key in JET_MAP_PATHS[kind]:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("value", [
    [1, 0], [True, 0.0], 0.5, 10 ** 400, [float("nan"), 0.0],
    [0.5, float("-inf")], ["1", "0"], [1.0], (1.0, 0.0), [-0.0, 5e-324]])
def test_coefficient_values_agree_with_the_oracle(kind, value):
    doc = copy.deepcopy(documents()[kind])
    jet_map = _first_jet_map(doc, kind)
    jet_map[next(iter(jet_map))] = value
    _only_scene_errors(LOADERS[kind], doc)


# the maps of jets of x alone and of schema-1 levels key 5 exponents, the
# levels of schema 2 key 4; jets of x alone refuse a cotangent exponent,
# which a schema-1 level may have
READABLE_KEYS = {"scene": {"4 0 0 0 0"}, "recovered": {"4 0 0 0 0"},
                 "symbols": {"4 0 0 0", "0 0 0 0"},
                 "symbols1": {"4 0 0 0 0", "0 0 0 0 1"}}


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("key", ["01 0 0 0 0", "0 0 0 0 00", "1 0 0 0 0 ",
                                 "\u0661 0 0 0 0", "4 0 0 0 0", "5 0 0 0 0",
                                 "0 0 0 0", "0 0 0 0 1", "01 0 0 0",
                                 "0 0 0 00", "\u0661 0 0 0", "4 0 0 0",
                                 "5 0 0 0", "0 0 0"])
@pytest.mark.parametrize("rename", [False, True])
def test_coefficient_keys_agree_with_the_oracle(kind, key, rename):
    doc = copy.deepcopy(documents()[kind])
    jet_map = _first_jet_map(doc, kind)
    first = next(iter(jet_map))
    jet_map[key] = jet_map.pop(first) if rename else [2.0, -0.0]
    loaded = _only_scene_errors(LOADERS[kind], doc)
    # only a canonical key of the map's width within the truncation order
    # is read; any other could name a monomial that another key names
    if key not in READABLE_KEYS[kind]:
        assert loaded is None


def _hostile_symbols(mutate) -> dict:
    doc = copy.deepcopy(documents()["symbols"])
    mutate(doc)
    return doc


NEED_4 = "(need 4 non-negative integers, single-spaced, no leading zeros)"


@pytest.mark.parametrize("doc, message", [
    pytest.param(_hostile_symbols(
        lambda doc: doc["levels"]["1"][0][0].update({"0 0 0 0 0": [1.0, 0.0]})),
        f"level 1[0][0]: bad exponent key '0 0 0 0 0' {NEED_4}",
        id="key-width"),
    *[pytest.param(_hostile_symbols(lambda doc, v=value: doc.update(schema=v)),
                   f"symbols document: unsupported schema {value!r}",
                   id=f"schema-{value!r}") for value in (0, 3, "2", 2.5, None)],
    pytest.param(_hostile_symbols(
        lambda doc: doc["levels"]["0"][1][1].update({"0 0 00 0": [1.0, 0.0]})),
        f"level 0[1][1]: bad exponent key '0 0 00 0' {NEED_4}",
        id="non-canonical-key"),
    pytest.param(_hostile_symbols(lambda doc: doc["accuracy"].pop("0")),
                 "symbols document: accuracy keys must be ['-1', '0', '1'], "
                 "got ['-1', '1']", id="missing-accuracy"),
    pytest.param(_hostile_symbols(
        lambda doc: doc["levels"]["-1"][2][0].update(
            {"0 0 0 0": [float("nan"), 0.0]})),
        "level -1[2][0]['0 0 0 0']: expected a finite number or [re, im] "
        "pair, got [nan, 0.0]", id="non-finite"),
])
def test_hostile_schema2_documents_exit_2_with_one_error_line(
        tmp_path, capsys, doc, message):
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps(doc))  # NaN is written as the token NaN
    out = tmp_path / "recovered.json"
    capsys.readouterr()
    assert main(["recover", "--symbols", str(path), "--order", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [f"error: {message}"]
    assert not out.exists()


def _random_jet(context: JetContext, rng, accuracy: int) -> Jet:
    """Coefficients of every kind the encoder meets: zeros, -0.0 parts,
    subnormals, normal numbers of both signs."""
    size = context.sizes[accuracy]
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -2.5,
                     1e-300, 1.7976931348623157e308])
    parts = rng.choice(pool, size=(size, 2)) * rng.choice([1.0, -1.0], (size, 2))
    parts[rng.random((size, 2)) < 0.3] *= rng.uniform(-1, 1)
    return Jet(context, parts.view(np.complex128)[:, 0].copy(), accuracy)


@pytest.mark.parametrize("n, K", [(2, 6), (3, 4), (4, 3)])
def test_codec_matches_the_oracle_bit_for_bit(n, K):
    rng = np.random.default_rng(n * 100 + K)
    full = JetContext(n, K, [0.7] * (n - 1))
    for context, accuracy in itertools.product((full, full.spatial),
                                               range(K + 1)):
        for _ in range(5):
            jet = _random_jet(context, rng, accuracy)
            data = jet_to_map(jet)
            expected = oracle_to_map(jet)
            assert list(data) == list(expected)
            assert np.array(list(data.values())).tobytes() == \
                np.array(list(expected.values())).tobytes()
            for target in range(K + 1):
                back = jet_from_map(context, data, accuracy=target)
                again = oracle_from_map(context, data, accuracy=target)
                assert back.accuracy == again.accuracy
                assert back.coeffs.tobytes() == again.coeffs.tobytes()
