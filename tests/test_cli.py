import json
import re
import warnings
from pathlib import Path

import pytest

from elastic_dtn import jets
from elastic_dtn.cli import main
from elastic_dtn.scenes import (
    SceneError,
    canonical_json,
    jet_to_map,
    random_scene,
    scene_to_json,
)
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_from_json,
    symbols_to_json,
)
from elastic_dtn.symbols import build_context, dtn_symbols

from roundtrip_utils import rel_err, true_inverse_derivatives


def write_scene(path, metric=None, lam=1.0, mu=1.0, n=2, K=6, order=2,
                extra=None):
    doc = {
        "schema": 1,
        "dimension": n,
        "truncation_order": K,
        "base_covector": [1.0] * (n - 1),
        "metric": metric or {"1,1": {"0" + " 0" * (2 * n - 2): 1.0}},
        "lambda": {"0" + " 0" * (2 * n - 2): lam},
        "mu": {"0" + " 0" * (2 * n - 2): mu},
        "order": order,
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def curved_metric():
    # g_11 = 1 + x_n in a 2d chart
    return {"1,1": {"0 0 0": 1.0, "0 1 0": 1.0}}


def test_forward_euclidean_zero_lower_levels(tmp_path):
    cfg = write_scene(tmp_path / "scene.json")
    out = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 2 and doc["kind"] == "p"
    assert sorted(doc["levels"], key=int) == ["-2", "-1", "0", "1"]
    for level in ("0", "-1", "-2"):
        for row in doc["levels"][level]:
            for jet_map in row:
                assert all(abs(complex(re, im)) < 1e-10
                           for re, im in jet_map.values())


def test_forward_curved_scene_quarter(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    out = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    corner = doc["levels"]["0"][1][1]
    assert abs(complex(*corner["0 0"]) - 0.25) < 1e-12


def test_forward_rejects_malformed_metric_key(tmp_path, capsys):
    cfg = write_scene(tmp_path / "scene.json",
                      metric={"1,1": {"0 0 0": 1.0}, "2,1": {"0 0 0": 0.1}})
    assert main(["forward", "--config", str(cfg), "--out",
                 str(tmp_path / "s.json")]) == 2
    assert "2,1" in capsys.readouterr().err


def test_forward_rejects_inadmissible_coefficients(tmp_path, capsys):
    cfg = write_scene(tmp_path / "scene.json", mu=-1.0)
    assert main(["forward", "--config", str(cfg), "--out",
                 str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "mu > 0" in err and "lambda + mu >= 0" in err


def test_forward_accuracy_exhaustion_exit(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", K=4, order=1)
    assert main(["forward", "--config", str(cfg), "--order", "3",
                 "--out", str(tmp_path / "s.json")]) == 3


def test_recover_euclidean_and_curved(tmp_path):
    cfg = write_scene(tmp_path / "e.json")
    sym = tmp_path / "symbols.json"
    rec = tmp_path / "recovered.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    assert main(["recover", "--symbols", str(sym), "--order", "2",
                 "--out", str(rec)]) == 0
    doc = json.loads(rec.read_text())
    assert abs(complex(*doc["g_inv"]["1,1"]["0 0 0"]) - 1.0) < 1e-10
    for order in ("1", "2"):
        vals = doc["normal_derivatives"][order]["1,1"].values()
        assert all(abs(complex(re, im)) < 1e-9 for re, im in vals)

    cfg2 = write_scene(tmp_path / "c.json", metric=curved_metric(), order=1)
    main(["forward", "--config", str(cfg2), "--out", str(sym)])
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(rec)]) == 0
    doc = json.loads(rec.read_text())
    assert abs(complex(*doc["normal_derivatives"]["1"]["1,1"]["0 0 0"])
               - (-1.0)) < 1e-8


def test_recover_missing_level_exit(tmp_path, capsys):
    cfg = write_scene(tmp_path / "scene.json", order=1)
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    doc = json.loads(sym.read_text())
    for block in ("levels", "accuracy"):
        del doc[block]["0"]
        del doc[block]["-1"]
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert _error_lines(capsys) == [
        "error: recovering order 1 needs the level of degree 0; observed "
        "levels stop at degree 1"]


def test_recover_quadraticity_gate_exit(tmp_path):
    one = {"0 0 0 0 0": 1.0}
    cfg = write_scene(tmp_path / "scene.json", n=3, order=1,
                      metric={"1,1": one, "2,2": one})
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    doc = json.loads(sym.read_text())
    # cubic contamination in the hyperplane offset of the principal corner
    # breaks the form model (for n = 2 the hyperplane is a point, and every
    # level of degree 2 is a form)
    doc["levels"]["1"][2][2]["0 0 0 3"] = [0.05, 0.0]
    sym.write_text(json.dumps(doc))
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "r.json")]) == 4


def test_roundtrip_seeded_and_euclidean(tmp_path):
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--seed", "11", "--dimension", "2",
                 "--truncation", "7", "--order", "3",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] and all(v <= 1e-6
                                 for v in doc["max_relative_error"].values())
    cfg = write_scene(tmp_path / "e.json")
    assert main(["roundtrip", "--config", str(cfg), "--order", "2",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert all(v <= 1e-12 for v in doc["max_relative_error"].values())


def test_roundtrip_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["roundtrip", "--seed", "5", "--dimension", "2",
            "--truncation", "6", "--order", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_forward_determinism_byte_identical(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["forward", "--config", str(cfg), "--out", str(a)])
    main(["forward", "--config", str(cfg), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_and_fails(tmp_path):
    cfg = write_scene(tmp_path / "scene.json")
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] and len(doc["checks"]) >= 10
    assert all(c["passed"] for c in doc["checks"])
    assert main(["verify", "--seed", "7", "--dimension", "3",
                 "--out", str(report)]) == 0


def test_verify_requires_scene_source(capsys):
    assert main(["verify"]) == 2


@pytest.mark.parametrize("command", ["forward", "recover", "roundtrip"])
def test_negative_order_is_an_input_error(tmp_path, capsys, command):
    cfg = write_scene(tmp_path / "scene.json")
    sym = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    source = {"forward": ["--config", str(cfg)],
              "recover": ["--symbols", str(sym)],
              "roundtrip": ["--config", str(cfg)]}[command]
    assert main([command, *source, "--order", "-1",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert "--order must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roundtrip", "verify"])
def test_negative_seed_is_an_input_error(capsys, command):
    assert main([command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed must be >= 0, got -1" in err
    assert "chart flags" not in err


def test_oversized_chart_rejected_before_any_table(tmp_path, capsys):
    cfg = write_scene(tmp_path / "scene.json")
    sym = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    big_scene = write_scene(tmp_path / "big.json", K=99)
    doc = json.loads(sym.read_text())
    doc["chart"]["truncation_order"] = 99
    big_symbols = tmp_path / "big_symbols.json"
    big_symbols.write_text(json.dumps(doc))
    builders = (jets._basis, jets._mul_table, jets._diff_table,
                jets._spatial_positions)
    tables = [b.cache_info().currsize for b in builders]
    out = str(tmp_path / "out.json")
    for argv in (["forward", "--config", str(big_scene)],
                 ["recover", "--symbols", str(big_symbols)],
                 ["roundtrip", "--seed", "1", "--truncation", "99"],
                 ["verify", "--seed", "1", "--dimension", "4",
                  "--truncation", "9"]):
        assert main(argv + ["--out", out]) == 2, argv
        assert "product pairs" in capsys.readouterr().err, argv
    assert [b.cache_info().currsize for b in builders] == tables


def test_symbols_schema_roundtrip(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=2)
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    raw = json.loads(sym.read_text())
    observed = observed_from_json(raw)
    again = symbols_to_json(observed.p, observed.lame, observed.chart)
    assert canonical_json(again) == canonical_json(raw)


def test_recovered_schema_roundtrip(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    sym, rec = tmp_path / "s.json", tmp_path / "r.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    main(["recover", "--symbols", str(sym), "--order", "1", "--out", str(rec)])
    raw = json.loads(rec.read_text())
    data = recovered_from_json(raw)
    from elastic_dtn.serialize import recovered_to_json

    assert canonical_json(recovered_to_json(data)) == canonical_json(raw)


BAD_ACCURACIES = ["x", 2.5, -1, 7, True, None]


@pytest.mark.parametrize("value", BAD_ACCURACIES)
def test_recover_rejects_bad_accuracy(tmp_path, capsys, value):
    cfg = write_scene(tmp_path / "scene.json", order=1)   # K = 6
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    doc = json.loads(sym.read_text())
    doc["accuracy"]["1"] = value
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "accuracy '1' must be an integer in 0..6" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", BAD_ACCURACIES)
def test_recovered_loader_rejects_bad_accuracy(tmp_path, value):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    sym, rec = tmp_path / "s.json", tmp_path / "r.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    main(["recover", "--symbols", str(sym), "--order", "1", "--out", str(rec)])
    raw = json.loads(rec.read_text())
    raw["accuracy"]["g_inv"] = value
    with pytest.raises(SceneError, match="accuracy 'g_inv' must be an integer"):
        recovered_from_json(raw)


@pytest.mark.parametrize("key, value", [("levels", []), ("lame", 5)])
def test_recover_rejects_non_object_blocks(tmp_path, capsys, key, value):
    cfg = write_scene(tmp_path / "scene.json", order=1)
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    doc = json.loads(sym.read_text())
    doc[key] = value
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be an object" in err
    assert "Traceback" not in err


def _g_inv_key(key):
    return lambda doc: doc["g_inv"].update({key: {}})


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(_g_inv_key("11"), "malformed key '11'", id="no-comma"),
    pytest.param(_g_inv_key("1,3"), "key '1,3' out of range", id="range"),
    pytest.param(_g_inv_key("0,0"), "key '0,0' out of range", id="zero"),
    pytest.param(lambda doc: doc.update(g_inv=[]),
                 "g_inv: expected an object", id="block-list"),
    pytest.param(lambda doc: doc.update(normal_derivatives={"1": "x"}),
                 "order 1: expected an object", id="order-string"),
    pytest.param(lambda doc: doc.update(normal_derivatives=[]),
                 "normal_derivatives must be an object", id="orders-list"),
    pytest.param(lambda doc: doc.pop("chart"), "missing key 'chart'",
                 id="no-chart"),
    pytest.param(lambda doc: doc["g_inv"].update({"1,1": {"0 0 0": -1.0}}),
                 "positive definite", id="not-positive"),
])
def test_recovered_loader_rejects_malformed_blocks(tmp_path, mutate, needle):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    sym, rec = tmp_path / "s.json", tmp_path / "r.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    main(["recover", "--symbols", str(sym), "--order", "1", "--out", str(rec)])
    raw = json.loads(rec.read_text())
    mutate(raw)
    with pytest.raises(SceneError, match=needle):
        recovered_from_json(raw)


@pytest.mark.parametrize("command", ["forward", "recover", "roundtrip", "verify"])
def test_degenerate_lame_is_an_input_error(tmp_path, capsys, command):
    # mu > 0, but 1/mu is not a usable jet
    cfg = write_scene(tmp_path / "scene.json", mu=1e-13)
    sym = tmp_path / "symbols.json"
    good = write_scene(tmp_path / "good.json")
    assert main(["forward", "--config", str(good), "--out", str(sym)]) == 0
    doc = json.loads(sym.read_text())
    doc["lame"]["mu"] = {"0 0 0": [1e-13, 0.0]}
    sym.write_text(json.dumps(doc))
    source = {"recover": ["--symbols", str(sym)]}.get(command,
                                                      ["--config", str(cfg)])
    capsys.readouterr()
    assert main([command, *source, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    where = "symbols document" if command == "recover" else "scene"
    assert [line for line in err if line.startswith("error:")] == [
        f"error: {where}: inadmissible material coefficients: require mu > 0 "
        "and lambda + mu >= 0 at the base point, with mu above 1e-12 "
        "(got mu=1e-13, lambda+mu=1)"]


def _error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("field, value", [
    ("dimension", 2.9), ("truncation_order", 6.7), ("order", 2.5),
    ("order", True), ("seed", 1.5)])
def test_scene_integer_fields_must_be_integers(tmp_path, capsys, field, value):
    cfg = write_scene(tmp_path / "scene.json", extra={field: value})
    low = {"dimension": 2, "truncation_order": 2}.get(field, 0)
    assert main(["forward", "--config", str(cfg),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        f"error: scene: {field} must be an integer >= {low}, got {value!r}"]


@pytest.mark.parametrize("document", ["symbols", "recovered"])
@pytest.mark.parametrize("field", ["dimension", "truncation_order"])
def test_chart_fields_must_be_integers(tmp_path, capsys, document, field):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    sym, rec = tmp_path / "s.json", tmp_path / "r.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    main(["recover", "--symbols", str(sym), "--order", "1", "--out", str(rec)])
    path = sym if document == "symbols" else rec
    doc = json.loads(path.read_text())
    doc["chart"][field] = float(doc["chart"][field])
    path.write_text(json.dumps(doc))
    needle = (f"{document} document: chart: {field} must be an integer >= 2, "
              f"got {doc['chart'][field]!r}")
    if document == "recovered":
        with pytest.raises(SceneError, match=needle):
            recovered_from_json(doc)
        return
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [f"error: {needle}"]


@pytest.mark.parametrize("source, order, code", [
    ("scene", 0, 2), ("scene", 3, 2), ("symbols", 0, 4), ("symbols", 3, 4)])
def test_overflowing_input_is_refused_without_a_document(tmp_path, capsys,
                                                         source, order, code):
    # finite inputs whose arithmetic overflows: mat_inverse refuses the
    # scene (exit 2), a consistency gate refuses the levels (exit 4)
    scene = scene_to_json(random_scene(1, dimension=2, truncation_order=6,
                                       order=3))
    cfg, sym = tmp_path / "scene.json", tmp_path / "symbols.json"
    cfg.write_text(json.dumps(scene))
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    if source == "scene":
        scene["metric"]["1,1"]["1 0 0"] = 1e300
        cfg.write_text(json.dumps(scene))
        argv = ["roundtrip", "--config", str(cfg)]
    else:
        doc = json.loads(sym.read_text())
        for value in doc["levels"]["1"][1][1].values():
            value[0] *= 1e300
            value[1] *= 1e300
        sym.write_text(json.dumps(doc))
        argv = ["recover", "--symbols", str(sym)]
    out = tmp_path / "out.json"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--order", str(order), "--out", str(out)]) == code
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: ")
    assert re.fullmatch(r"\[(roundtrip|recover)\] \d+\.\d\ds", err[1])
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "verify"])
@pytest.mark.parametrize("metric", ["x", 3, [], None])
def test_non_object_metric_is_an_input_error(tmp_path, capsys, command, metric):
    cfg = write_scene(tmp_path / "scene.json", extra={"metric": metric})
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        "error: metric: expected an object of 'a,b' entries, "
        f"got {type(metric).__name__}"]


def test_roundtrip_reads_the_scene_recovery_tolerances(tmp_path, capsys):
    scene = scene_to_json(random_scene(1, dimension=2, truncation_order=6,
                                       order=3))
    scene["tolerances"] = {"imaginary": 1e-300, "quadraticity": 1e-300}
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(scene))
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--config", str(cfg), "--order", "3",
                 "--out", str(out)]) == 4
    assert len(_error_lines(capsys)) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag, what", [
    ("forward", "--config", "scene"), ("recover", "--symbols", "symbols")])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000])
def test_unreadable_documents_are_input_errors(tmp_path, capsys, command, flag,
                                               what, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main([command, flag, str(path),
                 "--out", str(tmp_path / "out.json")]) == 2
    [line] = _error_lines(capsys)
    assert line.startswith(f"error: {what} file is not valid JSON: ")



@pytest.mark.parametrize("command", ["forward", "roundtrip", "verify"])
@pytest.mark.parametrize("value", [-1, 0])
def test_non_positive_scene_tolerance_is_an_input_error(tmp_path, capsys,
                                                        command, value):
    cfg = write_scene(tmp_path / "scene.json",
                      extra={"tolerances": {"quadraticity": value}})
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        "error: scene: tolerances must be finite numbers > 0, "
        f"got {{'quadraticity': {float(value)!r}}}"]


@pytest.mark.parametrize("command", ["recover", "roundtrip", "verify"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_non_positive_tol_flag_is_an_input_error(tmp_path, capsys, command,
                                                 value):
    cfg = write_scene(tmp_path / "scene.json")
    sym = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    source = {"recover": ["--symbols", str(sym)]}.get(command,
                                                      ["--config", str(cfg)])
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert main([command, *source, "--tol", value, "--out", str(out)]) == 2
    assert _error_lines(capsys) == [
        f"error: --tol must be a finite number > 0, got {float(value)!r}"]
    assert not out.exists()


def test_level_keys_must_be_canonical(tmp_path, capsys):
    cfg = write_scene(tmp_path / "scene.json", order=1)
    sym = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    doc = json.loads(sym.read_text())
    for block in ("levels", "accuracy"):
        doc[block]["+1"] = doc[block].pop("1")
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        "error: symbols document: bad level key '+1'"]


def test_non_finite_levels_are_refused_without_a_document(tmp_path, capsys):
    # mu overflows in the level recursion; its levels hold NaN
    scene = scene_to_json(random_scene(1, dimension=2, truncation_order=6,
                                       order=3))
    scene["mu"]["1 0 0"] = 1e300
    cfg, out = tmp_path / "scene.json", tmp_path / "symbols.json"
    cfg.write_text(json.dumps(scene))
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
    assert _error_lines(capsys) == [
        "error: level 1[0][0]: cannot write a coefficient that is not finite"]
    assert not out.exists()


def _symbols_document(tmp_path):
    """The symbols document of a (2,6,3) scene, parsed, and its path."""
    scene = scene_to_json(random_scene(1, dimension=2, truncation_order=6,
                                       order=3))
    cfg, sym = tmp_path / "scene.json", tmp_path / "symbols.json"
    cfg.write_text(json.dumps(scene))
    assert main(["forward", "--config", str(cfg), "--out", str(sym)]) == 0
    return json.loads(sym.read_text()), sym


@pytest.mark.parametrize("mutate, got", [
    pytest.param(lambda acc: acc.update({"+1": acc.pop("-2")}),
                 "['+1', '-1', '-3', '0', '1']", id="renamed"),
    pytest.param(lambda acc: acc.pop("-2"), "['-1', '-3', '0', '1']",
                 id="missing"),
    pytest.param(lambda acc: acc.update({"-4": 1}),
                 "['-1', '-2', '-3', '-4', '0', '1']", id="unmatched"),
])
def test_symbols_accuracy_keys_must_be_the_level_keys(tmp_path, capsys, mutate,
                                                      got):
    doc, sym = _symbols_document(tmp_path)
    mutate(doc["accuracy"])
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "3",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        "error: symbols document: accuracy keys must be "
        f"['-1', '-2', '-3', '0', '1'], got {got}"]


def test_symbols_accuracy_map_is_required(tmp_path, capsys):
    doc, sym = _symbols_document(tmp_path)
    del doc["accuracy"]
    sym.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["recover", "--symbols", str(sym), "--order", "3",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _error_lines(capsys) == [
        "error: symbols document: missing key 'accuracy'"]


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(lambda acc: acc.pop("1"),
                 r"accuracy keys must be \['1', 'g_inv'\], got \['g_inv'\]",
                 id="missing-order"),
    pytest.param(lambda acc: acc.update({"2": 1}),
                 r"got \['1', '2', 'g_inv'\]", id="unmatched-order"),
    pytest.param(lambda acc: acc.update({"+1": acc.pop("1")}),
                 r"got \['\+1', 'g_inv'\]", id="renamed-order"),
    pytest.param(lambda acc: acc.clear(), r"got \[\]", id="empty"),
])
def test_recovered_accuracy_keys_must_be_the_block_keys(tmp_path, mutate,
                                                        needle):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=1)
    sym, rec = tmp_path / "s.json", tmp_path / "r.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    main(["recover", "--symbols", str(sym), "--order", "1", "--out", str(rec)])
    raw = json.loads(rec.read_text())
    mutate(raw["accuracy"])
    with pytest.raises(SceneError, match=needle):
        recovered_from_json(raw)
    del raw["accuracy"]
    with pytest.raises(SceneError, match="missing key 'accuracy'"):
        recovered_from_json(raw)


def test_non_canonical_exponent_keys_are_input_errors(tmp_path, capsys):
    # "01 0 0" names the monomial "1 0 0" names; neither may silently win
    metric = {"1,1": {"0 0 0": 1.0, "1 0 0": 0.1, "01 0 0": 0.2}}
    cfg = write_scene(tmp_path / "scene.json", metric=metric)
    out = tmp_path / "symbols.json"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
    assert _error_lines(capsys) == [
        "error: metric['1,1']: bad exponent key '01 0 0' (need 3 non-negative "
        "integers, single-spaced, no leading zeros)"]
    assert not out.exists()


def _whole_expansion_document(scene, order):
    """A symbols document as written before levels were stored at x_n = 0:
    every level's whole x_n-expansion, indented."""
    levels = dtn_symbols(build_context(scene.metric, scene.lame,
                                       scene.context), order)
    doc = symbols_to_json(levels, scene.lame, scene.context)
    doc["levels"] = {
        str(d): [[jet_to_map(m[i, j]) for j in range(m.cols)]
                 for i in range(m.rows)]
        for d, m in levels.levels.items()}
    return canonical_json(doc)


@pytest.mark.parametrize("n, K, order", [(2, 6, 3), (3, 5, 2)])
def test_whole_expansion_documents_recover_to_the_same_bytes(tmp_path, n, K,
                                                              order):
    scene = random_scene(3, dimension=n, truncation_order=K, order=order)
    cfg, new, old = (tmp_path / name for name in ("scene.json", "new.json",
                                                  "old.json"))
    cfg.write_text(canonical_json(scene_to_json(scene)))
    assert main(["forward", "--config", str(cfg), "--out", str(new)]) == 0
    old.write_text(_whole_expansion_document(scene, order))
    assert old.stat().st_size > new.stat().st_size
    for flags in ([], ["--cross-check"]):
        written = []
        for symbols in (new, old):
            out = tmp_path / f"recovered-{symbols.name}"
            assert main(["recover", "--symbols", str(symbols), "--order",
                         str(order), "--out", str(out), *flags]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1], flags
    loaded = [observed_from_json(json.loads(path.read_text()))
              for path in (new, old)]
    assert [(d, m.accuracy, m.coeffs.tobytes())
            for d, m in loaded[0].p.levels.items()] == \
        [(d, m.accuracy, m.coeffs.tobytes())
         for d, m in loaded[1].p.levels.items()]


def test_forward_writes_one_compact_line_of_boundary_levels(tmp_path):
    scene = random_scene(4, dimension=3, truncation_order=5, order=2)
    cfg, out = tmp_path / "scene.json", tmp_path / "symbols.json"
    cfg.write_text(canonical_json(scene_to_json(scene)))
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    normal = scene.dimension - 1
    keys = [key for level in doc["levels"].values() for row in level
            for jet_map in row for key in jet_map]
    assert keys and all(key.split()[normal] == "0" for key in keys)
    # the material jets keep their x_n-expansion: reference runs read it
    assert any(key.split()[normal] != "0" for key in doc["lame"]["mu"])


@pytest.mark.parametrize("n, K, order, seed", [(2, 6, 3, 3), (3, 4, 1, 5)])
def test_schema1_documents_recover_on_the_hyperplane(tmp_path, n, K, order,
                                                     seed):
    """A symbols document written before levels were stored on the
    hyperplane (schema 1, levels over x and eta = xi - xi0) recovers to the
    blocks of the schema-2 document of the same scene, to roundoff, with
    the same accuracies, with and without --cross-check."""
    old = (Path(__file__).resolve().parent / "data"
           / f"symbols-schema1-{n}-{K}-{order}-seed{seed}.json")
    assert json.loads(old.read_text())["schema"] == 1
    scene = random_scene(seed, dimension=n, truncation_order=K, order=order)
    cfg, new = tmp_path / "scene.json", tmp_path / "symbols.json"
    cfg.write_text(canonical_json(scene_to_json(scene)))
    assert main(["forward", "--config", str(cfg), "--out", str(new)]) == 0
    truth = true_inverse_derivatives(scene, order)
    for flags in ([], ["--cross-check"]):
        blocks = []
        for symbols in (old, new):
            out = tmp_path / "recovered.json"
            assert main(["recover", "--symbols", str(symbols), "--order",
                         str(order), "--out", str(out), *flags]) == 0
            data = recovered_from_json(json.loads(out.read_text()))
            blocks.append([data.g_inv, *data.normal_derivs])
        for m, (a, b) in enumerate(zip(*blocks)):
            assert a.accuracy == b.accuracy
            assert (a - b).max_abs() <= 1e-13, (flags, m)
            for i in range(n - 1):
                for j in range(n - 1):
                    assert rel_err(a[i, j], truth[m][i, j]) <= 1e-13
