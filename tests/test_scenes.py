import json

import pytest

from elastic_dtn import Jet, JetContext, JetMatrix, NotInvertible, mat_inverse
from elastic_dtn.jets import IllConditionedWarning
from elastic_dtn.scenes import (
    SceneError,
    atomic_write_json,
    canonical_json,
    context_from_json,
    jet_from_map,
    jet_to_map,
    load_scene,
    random_scene,
    scene_from_json,
    scene_to_json,
)


def test_jet_map_roundtrip():
    # a jet of x alone keys n x-exponents and n - 1 zeros; a full-chart
    # jet keys its n x-exponents and n - 2 hyperplane offsets
    ctx = JetContext(3, 5, (1.0, 0.5))
    for chart, exps, keys in [
            (ctx.spatial, [(1, 0, 0), (0, 0, 2)], ["1 0 0 0 0", "0 0 2 0 0"]),
            (ctx, [(1, 0, 0, 0), (0, 0, 0, 2)], ["1 0 0 0", "0 0 0 2"])]:
        jet = Jet.from_coefficients(chart, {exps[0]: 2.0 + 1.0j,
                                            exps[1]: -0.5})
        data = jet_to_map(jet)
        assert data == {keys[0]: [2.0, 1.0], keys[1]: [-0.5, 0.0]}
        back = jet_from_map(chart, data)
        assert back.context is chart and back.allclose(jet)


def test_jet_map_validation():
    ctx = JetContext(2, 4, (1.0,)).spatial
    with pytest.raises(SceneError):
        jet_from_map(ctx, {"1 0": 1.0})  # wrong arity
    with pytest.raises(SceneError):
        jet_from_map(ctx, {"5 0 0": 1.0})  # beyond truncation
    with pytest.raises(SceneError):
        jet_from_map(ctx, {"1 0 0": "x"})  # bad value
    # a jet of x alone has no cotangent content above ZERO_COEFF_TOL
    with pytest.raises(SceneError, match="names a cotangent variable"):
        jet_from_map(ctx, {"0 0 0": 1.0, "0 0 1": 1e-13})
    assert jet_from_map(ctx, {"0 0 0": 1.0, "0 0 1": 1e-15}).allclose(1.0,
                                                                      tol=0)
    with pytest.raises(SceneError, match="need 2 non-negative integers"):
        jet_from_map(ctx.full, {"0 0 0": 1.0})


def test_scene_document_roundtrip():
    scene = random_scene(4, dimension=3, truncation_order=5)
    doc = scene_to_json(scene)
    again = scene_from_json(json.loads(canonical_json(doc)))
    assert again.metric.tangential_matrix().allclose(
        scene.metric.tangential_matrix())
    assert again.lame.lam.allclose(scene.lame.lam)
    assert again.base_covector == scene.base_covector


def test_scene_validation_errors():
    base = {
        "schema": 1,
        "dimension": 2,
        "truncation_order": 6,
        "base_covector": [1.0],
        "metric": {"1,1": {"0 0 0": 1.0}},
        "lambda": {"0 0 0": 1.0},
        "mu": {"0 0 0": 1.0},
    }
    for mutation, needle in [
        ({"metric": {}}, "missing diagonal"),
        ({"metric": {"1,2": {"0 0 0": 1.0}}}, "out of range"),
        ({"metric": {"bad": {"0 0 0": 1.0}}}, "malformed key"),
        ({"base_covector": [0.0]}, "nonzero"),
        ({"order": 9}, "truncation order"),
        ({"tolerances": {"bogus": 1.0}}, "unknown tolerance"),
        ({"mu": {"0 0 0": -2.0}}, "mu > 0"),
        ({"order": float("inf")}, "order must be an integer"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"tolerances": {"roundtrip": float("nan")}}, "must be finite"),
        ({"tolerances": {"roundtrip": "x"}}, "could not convert"),
        ({"lambda": {"0 0 0": 10 ** 400}}, "finite number"),
    ]:
        doc = dict(base)
        doc.update(mutation)
        with pytest.raises(SceneError, match=needle):
            scene_from_json(doc)


def test_loaded_jets_own_exactly_their_trusted_coefficients():
    ctx = JetContext(3, 7, (0.8, -1.2))
    data = {"0 0 0 0": 1.0, "1 0 0 0": 2.0, "0 0 0 3": 0.5,
            "0 4 0 0": [1.0, -1.0], "2 2 1 2": 0.25}
    for acc in (0, 1, 4, 7):
        for jet in (jet_from_map(ctx, data, accuracy=acc),
                    Jet.constant(ctx, 2.0, acc)):
            assert jet.accuracy == acc and len(jet.coeffs) == ctx.sizes[acc]
            assert jet.coeffs.base is None  # not a view of a longer vector
        assert jet_from_map(ctx, data, accuracy=acc).allclose(
            jet_from_map(ctx, data), tol=0)


def test_load_scene_missing_file(tmp_path):
    with pytest.raises(SceneError):
        load_scene(tmp_path / "nope.json")


def test_random_scene_deterministic_and_admissible():
    a = random_scene(77, dimension=3, truncation_order=5)
    b = random_scene(77, dimension=3, truncation_order=5)
    assert a.metric.tangential_matrix().allclose(b.metric.tangential_matrix(),
                                                 tol=0)
    assert a.base_covector == b.base_covector
    assert a.lame.mu.constant_term.real > 0


def test_mat_inverse_warns_when_ill_conditioned():
    ctx = JetContext(2, 4, (1.0,))
    m = JetMatrix.diagonal(ctx, [Jet.constant(ctx, 1.0),
                                 Jet.constant(ctx, 1e-9)])
    with pytest.warns(IllConditionedWarning):
        inv = mat_inverse(m)
    assert abs(inv[1, 1].constant_term - 1e9) < 1.0


def test_mat_inverse_singular_rejected():
    ctx = JetContext(2, 4, (1.0,))
    m = JetMatrix(ctx, [[Jet.constant(ctx, 1.0), Jet.constant(ctx, 1.0)],
                        [Jet.constant(ctx, 1.0), Jet.constant(ctx, 1.0)]])
    with pytest.raises(NotInvertible):
        mat_inverse(m)


def test_canonical_json_stable():
    doc = {"b": 1.5, "a": [1, 2], "nested": {"y": 0.1, "x": 2}}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def test_canonical_text_is_indented_sorted_json_in_every_batch(tmp_path):
    # far more encoder chunks than one write batch holds
    doc = {f"k{i}": {"b": [i, 0.5 * i], "a": None} for i in range(5000)}
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert canonical_json(doc) == expected
    atomic_write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                   "[1.0, NaN]", "[Infinity, 0.0]"])
def test_non_finite_coefficients_rejected(value):
    ctx = JetContext(2, 4, (1.0,)).spatial
    data = json.loads('{"0 0 0": %s}' % value)
    with pytest.raises(SceneError, match="finite"):
        jet_from_map(ctx, data)


@pytest.mark.parametrize("covector", ["[Infinity]", "[NaN]", "[-Infinity]"])
def test_non_finite_base_covector_rejected(covector):
    chart = json.loads('{"dimension": 2, "truncation_order": 4, '
                       '"base_covector": %s}' % covector)
    with pytest.raises(SceneError, match="finite"):
        context_from_json(chart)
