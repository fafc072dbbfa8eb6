import json

import pytest

from elastic_dtn.cli import main
from elastic_dtn.scenes import SceneError, canonical_json
from elastic_dtn.serialize import observed_from_json, recovered_from_json


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
    assert doc["schema"] == 1 and doc["kind"] == "p"
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
    assert abs(complex(*corner["0 0 0"]) - 0.25) < 1e-12


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
    del doc["levels"]["0"]
    del doc["levels"]["-1"]
    sym.write_text(json.dumps(doc))
    assert main(["recover", "--symbols", str(sym), "--order", "1",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_recover_quadraticity_gate_exit(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", order=1)
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    doc = json.loads(sym.read_text())
    # cubic contamination of the principal corner breaks the form model
    doc["levels"]["1"][1][1]["0 0 3"] = [0.05, 0.0]
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


def test_symbols_schema_roundtrip(tmp_path):
    cfg = write_scene(tmp_path / "scene.json", metric=curved_metric(), order=2)
    sym = tmp_path / "symbols.json"
    main(["forward", "--config", str(cfg), "--out", str(sym)])
    raw = json.loads(sym.read_text())
    observed = observed_from_json(raw)
    from elastic_dtn.serialize import symbols_to_json

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
