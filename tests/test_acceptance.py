"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names mirror the criteria so plain ``-v`` output shows the
same pass/fail information.
"""

import json

import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix
from elastic_dtn.cli import main
from elastic_dtn.geometry import (
    LameJet,
    MetricJet,
    apply_decomposition,
    lame_apply,
    leading_coefficient_inverse,
    prepare,
)
from elastic_dtn.recovery import lin_inverse, recover_full
from elastic_dtn.scenes import canonical_json, random_scene, random_vector_field
from elastic_dtn.symbols import (
    build_context,
    dtn_symbols,
    plane_wave_consistency,
    q1,
    solve_q,
)

from roundtrip_utils import forward_observed, rel_err, true_inverse_derivatives

SCENE_SEEDS = range(10)


def _report(num, name, value, tol, ok=None):
    ok = bool(value <= tol) if ok is None else bool(ok)
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} "
          f"(residual {value:.3g}, tolerance {tol:g})", flush=True)
    return ok


@pytest.fixture(scope="module")
def scene_set():
    scenes = []
    for n in (2, 3):
        for seed in SCENE_SEEDS:
            scene = random_scene(2000 + seed, dimension=n, truncation_order=5)
            ctx = build_context(scene.metric, scene.lame, scene.context)
            scenes.append((scene, ctx))
    return scenes


@pytest.fixture(scope="module")
def roundtrip_results():
    results = []
    for n in (2, 3):
        for seed in SCENE_SEEDS:
            scene = random_scene(3000 + seed, dimension=n, truncation_order=7)
            obs, _ = forward_observed(scene, 3)
            data = recover_full(obs, 3)
            truth = true_inverse_derivatives(scene, 3)
            worst = 0.0
            for m in range(4):
                block = data.g_inv if m == 0 else data.normal_derivs[m - 1]
                for a in range(n - 1):
                    for b in range(n - 1):
                        worst = max(worst, rel_err(block[a][b], truth[m][a, b]))
            results.append((n, seed, worst, data.diagnostics))
    return results


def test_criterion_01_operator_identity(scene_set):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for scene, _ in scene_set:
        ainv = leading_coefficient_inverse(scene.lame, scene.context)
        for _ in range(2):
            u = random_vector_field(scene.context, rng)
            lhs = apply_decomposition(u, scene.metric, scene.lame)
            rhs = ainv @ lame_apply(u, scene.metric, scene.lame)
            worst = max(worst, (lhs - rhs).max_abs())
    assert _report(1, "operator identity", worst, 1e-9)


def test_criterion_02_plane_wave_symbols(scene_set):
    worst = 0.0
    for scene, ctx in scene_set:
        report = plane_wave_consistency(ctx)
        worst = max(worst, report["max_residual"])
    assert _report(2, "plane-wave symbol consistency", worst, 1e-9)


def test_criterion_03_riccati(scene_set):
    worst = 0.0
    for _, ctx in scene_set:
        principal = q1(ctx)
        worst = max(worst,
                    (principal @ principal - ctx.b1 @ principal
                     + ctx.c2).max_abs())
    assert _report(3, "riccati identity", worst, 1e-10)


def test_criterion_04_algebraic_structure(scene_set):
    rng = np.random.default_rng(999)
    worst = 0.0
    for _, ctx in scene_set[::4]:
        n = ctx.chart.dimension
        worst = max(worst, (ctx.f1 @ ctx.f1).max_abs(),
                    (ctx.f2 @ ctx.f2).max_abs())
        entries = [[Jet.from_coefficients(
            ctx.chart,
            {m: rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
             for m in ctx.chart.monomials if sum(m) <= 2})
            for _ in range(n)] for _ in range(n)]
        E = JetMatrix(ctx.chart, entries)
        worst = max(worst, (lin_inverse(solve_q(E, ctx), ctx) - E).max_abs())
    assert _report(4, "nilpotency and solve/inverse round-trip", worst, 1e-12)


def test_criterion_05_euclidean_degeneration():
    chart = JetContext(2, 6, (1.0,))
    metric = MetricJet(chart, JetMatrix.identity(chart, 1))
    lame = LameJet.constant(chart, 1.0, 1.0)
    ctx = build_context(metric, lame, chart)
    symbols = dtn_symbols(ctx, 2)
    # with a flat metric and base covector 1 the cotangent norm is exactly
    # the linear jet 1 + offset, so the closed form can be written down
    # without any series machinery: all entries are 1.5 or -+0.5i times it
    xi = Jet.xi_component(chart, 0)
    closed_form = JetMatrix(chart, [[1.5 * xi, -0.5j * xi],
                                    [0.5j * xi, 1.5 * xi]])
    p1 = symbols.level(1)
    p1_residual = 0.0
    base_residual = 0.0
    expected_base = [[1.5, -0.5j], [0.5j, 1.5]]
    for i in range(2):
        for j in range(2):
            p1_residual = max(p1_residual,
                              (p1[i, j] - closed_form[i, j]).max_abs())
            base_residual = max(base_residual,
                                abs(p1[i, j].constant_term
                                    - expected_base[i][j]))
    lower = max(symbols.level(0).max_abs(), symbols.level(-1).max_abs(),
                symbols.level(-2).max_abs())
    ok = _report(5, "euclidean principal level closed form",
                 max(p1_residual, base_residual), 1e-12)
    ok &= _report(5, "euclidean lower levels vanish", lower, 1e-10)
    assert ok


def test_criterion_06_gamma_identities_and_positivity(scene_set):
    worst = 0.0
    min_denominator = np.inf
    for scene, ctx in scene_set:
        n = scene.dimension
        nn = n - 1
        geo = prepare(scene.metric)
        xi = [Jet.xi_component(scene.context, a) for a in range(nn)]
        dn_norm_sq = ctx.norm_sq.dn()
        first = Jet.zero(scene.context)
        second = Jet.zero(scene.context)
        for b in range(nn):
            for c in range(nn):
                first = first + geo.gamma[b, c, nn] * ctx.xi_up[c] * xi[b]
                second = second + geo.gamma[nn, b, c] * ctx.xi_up[c] * ctx.xi_up[b]
        trace = Jet.zero(scene.context)
        lhs = Jet.zero(scene.context)
        rhs = Jet.zero(scene.context)
        for a in range(nn):
            trace = trace + geo.gamma[a, nn, a]
            for b in range(nn):
                lhs = lhs + geo.ginv[a, b] * geo.g[a, b].dn()
                rhs = rhs + geo.g[a, b] * geo.ginv[a, b].dn()
        worst = max(worst,
                    (first + 0.5 * dn_norm_sq).max_abs(),
                    (second - 0.5 * dn_norm_sq).max_abs(),
                    (trace - 0.5 * lhs).max_abs(),
                    (trace + 0.5 * rhs).max_abs())
        lam0 = scene.lame.lam.constant_term.real
        mu0 = scene.lame.mu.constant_term.real
        min_denominator = min(min_denominator,
                              (2 * n - 3) * (lam0 + mu0) + (3 * n - 4) * mu0)
    ok = _report(6, "boundary-normal connection identities", worst, 1e-10)
    ok &= _report(6, "trace denominator positive", -min_denominator, 0.0,
                  ok=min_denominator > 0)
    reference = (3 - 1) * (2 * 1 + 5 * 1) - (1 + 2 * 1)
    ok &= _report(6, "n=3 unit-coefficient denominator equals 11",
                  abs(reference - 11), 0.0, ok=reference == 11)
    assert ok


def test_criterion_07_hand_verified_scene():
    chart = JetContext(2, 6, (1.0,))
    metric = MetricJet(chart, [[1 + Jet.variable(chart, 1)]])
    lame = LameJet.constant(chart, 1.0, 1.0)
    ctx = build_context(metric, lame, chart)
    symbols = dtn_symbols(ctx, 1)
    from elastic_dtn.recovery import ObservedSymbols

    data = recover_full(ObservedSymbols(symbols, lame, chart), 1)
    deriv = data.normal_derivs[0][0][0].constant_term.real
    g00 = data.g_inv[0][0].constant_term.real
    h1 = 1.0 * deriv  # g_11 = 1 at the base point
    k1 = 7 * h1 * g00 - 3 * deriv
    err = max(abs(deriv - (-1.0)), abs(h1 - (-1.0)), abs(k1 - (-4.0)) / 4.0)
    assert _report(7, "hand-verified single-mode recovery", err, 1e-8)


def test_criterion_08_full_roundtrip(roundtrip_results):
    worst = max(r[2] for r in roundtrip_results)
    assert _report(8, "forward/recover round-trip (20 seeds, M=3)",
                   worst, 1e-6)


def test_criterion_09_quadraticity_diagnostics(roundtrip_results):
    worst = max(r[3]["quadraticity"] for r in roundtrip_results)
    assert _report(9, "quadratic-form diagnostics in round-trips", worst, 1e-9)


def test_criterion_10_cli_contract(tmp_path):
    scene_doc = {
        "schema": 1,
        "dimension": 2,
        "truncation_order": 6,
        "base_covector": [1.0],
        "metric": {"1,1": {"0 0 0": 1.0, "0 1 0": 1.0}},
        "lambda": {"0 0 0": 1.0},
        "mu": {"0 0 0": 1.0},
        "order": 2,
    }
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(scene_doc))
    ok = True

    # determinism: repeated invocations byte-identical
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["forward", "--config", str(cfg), "--out", str(a)])
    main(["forward", "--config", str(cfg), "--out", str(b)])
    ok &= a.read_bytes() == b.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["roundtrip", "--seed", "42", "--dimension", "2",
            "--truncation", "6", "--order", "2"]
    main(argv + ["--out", str(r1)])
    main(argv + ["--out", str(r2)])
    ok &= r1.read_bytes() == r2.read_bytes()

    # schema: emitted files re-parse losslessly
    from elastic_dtn.serialize import (
        observed_from_json,
        recovered_from_json,
        recovered_to_json,
        symbols_to_json,
    )

    raw = json.loads(a.read_text())
    observed = observed_from_json(raw)
    ok &= canonical_json(symbols_to_json(observed.p, observed.lame,
                                         observed.chart)) == canonical_json(raw)
    rec = tmp_path / "rec.json"
    main(["recover", "--symbols", str(a), "--order", "2", "--out", str(rec)])
    raw_rec = json.loads(rec.read_text())
    ok &= canonical_json(recovered_to_json(recovered_from_json(raw_rec))) \
        == canonical_json(raw_rec)

    # exit codes: 0 covered above; 1 check failure; 2 input; 3 accuracy; 4 gate
    ok &= main(["roundtrip", "--config", str(cfg), "--order", "2",
                "--tol", "1e-30", "--out", str(tmp_path / "x.json")]) == 1
    bad = dict(scene_doc)
    bad["metric"] = {"1,1": {"0 0 0": 1.0}, "2,1": {"0 0 0": 0.1}}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    ok &= main(["forward", "--config", str(bad_path),
                "--out", str(tmp_path / "x.json")]) == 2
    inadmissible = dict(scene_doc)
    inadmissible["mu"] = {"0 0 0": -1.0}
    bad_path.write_text(json.dumps(inadmissible))
    ok &= main(["forward", "--config", str(bad_path),
                "--out", str(tmp_path / "x.json")]) == 2
    ok &= main(["forward", "--config", str(cfg), "--order", "5",
                "--out", str(tmp_path / "x.json")]) == 3
    corrupted = json.loads(a.read_text())
    # an imaginary tangential term in the principal corner fails the
    # imaginary gate of order 0
    corrupted["levels"]["1"][1][1]["1 0"] = [0.0, 0.05]
    bad_path.write_text(json.dumps(corrupted))
    ok &= main(["recover", "--symbols", str(bad_path), "--order", "1",
                "--out", str(tmp_path / "x.json")]) == 4
    assert _report(10, "CLI determinism, schema and exit-code contract",
                   0.0 if ok else 1.0, 0.5, ok=ok)
