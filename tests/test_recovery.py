import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix, mat_inverse
from elastic_dtn.geometry import LameJet, MetricJet
from elastic_dtn.recovery import (
    ConsistencyError,
    ObservedSymbols,
    RecoveredBoundaryData,
    extract_quadratic,
    extract_quadratic_sampled,
    lin_inverse,
    recover_full,
    recover_order0,
)
from elastic_dtn.scenes import SceneError, canonical_json, random_scene
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_to_json,
    symbols_to_json,
)
from elastic_dtn.symbols import build_context, dtn_symbols, solve_q
from elastic_dtn.jets import reciprocal

from roundtrip_utils import forward_observed, rel_err, true_inverse_derivatives


def test_extract_quadratic_examples():
    ctx = JetContext(2, 5, (1.0,))
    xi = Jet.xi_component(ctx, 0)
    block, diag = extract_quadratic(xi * xi)
    assert block[0][0].allclose(1.0)
    assert diag["quadraticity"] < 1e-14

    ctx3 = JetContext(3, 5, (1.0, 1.0))
    xi1 = Jet.xi_component(ctx3, 0)
    xi2 = Jet.xi_component(ctx3, 1)
    block, _ = extract_quadratic(2 * xi1 * xi2)
    assert block[0][1].allclose(1.0) and block[1][0].allclose(1.0)
    assert block[0][0].is_zero() and block[1][1].is_zero()

    x1 = Jet.x_var(ctx, 0)
    block, _ = extract_quadratic((1 + x1) * xi * xi)
    assert block[0][0].allclose(1 + x1)


def test_extract_quadratic_gate():
    ctx = JetContext(2, 5, (1.0,))
    xi = Jet.xi_component(ctx, 0)
    with pytest.raises(ConsistencyError):
        extract_quadratic(xi * xi * xi)
    # constant and linear contamination is caught too
    with pytest.raises(ConsistencyError):
        extract_quadratic(xi * xi + 0.001)


def test_extract_quadratic_sampled_agrees():
    ctx = JetContext(3, 5, (0.8, -1.1))
    xi1 = Jet.xi_component(ctx, 0)
    xi2 = Jet.xi_component(ctx, 1)
    x1 = Jet.x_var(ctx, 0)
    Q = (1 + 0.3 * x1) * xi1 * xi1 + 2 * x1 * xi1 * xi2 - 0.5 * xi2 * xi2
    hess, _ = extract_quadratic(Q)
    samp = extract_quadratic_sampled(Q)
    for a in range(2):
        for b in range(2):
            assert (hess[a][b] - samp[a][b]).max_abs() < 1e-12


def test_lin_inverse_round_trips():
    scene = random_scene(31, dimension=3, truncation_order=5)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    zero = JetMatrix.zeros(scene.context, 3, 3)
    assert lin_inverse(zero, ctx).is_zero()
    rng = np.random.default_rng(2)
    for _ in range(3):
        entries = [[Jet.from_coefficients(
            scene.context,
            {m: rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
             for m in scene.context.monomials if sum(m) <= 2})
            for _ in range(3)] for _ in range(3)]
        E = JetMatrix(scene.context, entries)
        assert (lin_inverse(solve_q(E, ctx), ctx) - E).max_abs() < 1e-12
        assert (solve_q(lin_inverse(E, ctx), ctx) - E).max_abs() < 1e-12


def test_lin_inverse_degenerate_coefficients():
    # lambda + mu = 0 kills the rank-structured part: X -> 2 r X
    ctx_chart = JetContext(2, 5, (1.0,))
    metric = MetricJet.euclidean(ctx_chart)
    lame = LameJet.constant(ctx_chart, -1.0, 1.0)
    ctx = build_context(metric, lame, ctx_chart)
    X = JetMatrix.identity(ctx_chart, 2)
    expected = X * (2 * ctx.norm)
    assert lin_inverse(X, ctx).allclose(expected)


def test_recover_order0_euclidean():
    ctx_chart = JetContext(2, 6, (1.0,))
    scene_metric = MetricJet.euclidean(ctx_chart)
    lame = LameJet.constant(ctx_chart, 1.0, 1.0)
    ctx = build_context(scene_metric, lame, ctx_chart)
    symbols = dtn_symbols(ctx, 0)
    corner = symbols.level(1)[1, 1]
    assert abs(corner.constant_term - 1.5) < 1e-13
    obs = ObservedSymbols(symbols, lame, ctx_chart)
    g_inv, diag = recover_order0(obs)
    assert g_inv[0][0].allclose(1.0, tol=1e-12)
    assert diag["quadraticity"] < 1e-12


def test_recover_order0_random_roundtrip():
    for n in (2, 3):
        scene = random_scene(40 + n, dimension=n, truncation_order=6)
        obs, _ = forward_observed(scene, 0)
        g_inv, _ = recover_order0(obs)
        truth = true_inverse_derivatives(scene, 0)[0]
        for a in range(n - 1):
            for b in range(n - 1):
                assert abs(g_inv[a][b].constant_term
                           - truth[a, b].constant_term) < 1e-10
                assert rel_err(g_inv[a][b], truth[a, b]) < 1e-9


def test_hand_scene_first_order():
    # g_11 = 1 + x_n with unit coefficients recovers d_n g^11 = -1 through
    # the combination k = -4, h = -1 and trace denominator 4.
    ctx_chart = JetContext(2, 6, (1.0,))
    metric = MetricJet(ctx_chart, [[1 + Jet.x_var(ctx_chart, 1)]])
    lame = LameJet.constant(ctx_chart, 1.0, 1.0)
    ctx = build_context(metric, lame, ctx_chart)
    symbols = dtn_symbols(ctx, 1)
    # the observed degree-zero corner sits exactly 1/4 above flat
    assert abs(symbols.level(0)[1, 1].constant_term - 0.25) < 1e-12
    obs = ObservedSymbols(symbols, lame, ctx_chart)
    data = recover_full(obs, 1)
    deriv = data.normal_derivs[0][0][0]
    assert abs(deriv.constant_term - (-1.0)) < 1e-8
    assert data.diagnostics["peeling"][1]["trace_denominator"] == pytest.approx(4.0)
    # h = g_ab d_n g^ab = -1 and k = 7 h g - 3 d_n g^inv = -4
    g00 = data.g_inv[0][0].constant_term.real
    h = g00 ** -1 * 0 + deriv.constant_term.real * 1.0  # g_11 = 1 at base
    assert abs(h - (-1.0)) < 1e-8
    k = 7 * h * g00 - 3 * deriv.constant_term.real
    assert abs(k - (-4.0)) < 1e-7


def test_trace_denominator_dimension3():
    scene = random_scene(77, dimension=3, truncation_order=6)
    lame = LameJet.constant(scene.context, 1.0, 1.0)
    from elastic_dtn.scenes import SceneConfig

    cfg = SceneConfig(3, 6, scene.base_covector, scene.metric, lame,
                      scene.context)
    obs, _ = forward_observed(cfg, 1)
    data = recover_full(obs, 1)
    assert data.diagnostics["peeling"][1]["trace_denominator"] == pytest.approx(11.0)


def test_euclidean_recover_all_orders_zero():
    ctx_chart = JetContext(2, 6, (1.0,))
    metric = MetricJet.euclidean(ctx_chart)
    lame = LameJet.constant(ctx_chart, 2.0, 0.5)
    ctx = build_context(metric, lame, ctx_chart)
    obs = ObservedSymbols(dtn_symbols(ctx, 3), lame, ctx_chart)
    data = recover_full(obs, 3)
    assert data.g_inv[0][0].allclose(1.0, tol=1e-10)
    for block in data.normal_derivs:
        assert block[0][0].max_abs() < 1e-9


def test_full_roundtrip_small():
    for n, seed in ((2, 1), (2, 2), (3, 1)):
        scene = random_scene(seed, dimension=n, truncation_order=7)
        obs, _ = forward_observed(scene, 3)
        data = recover_full(obs, 3)
        truth = true_inverse_derivatives(scene, 3)
        for a in range(n - 1):
            for b in range(n - 1):
                assert rel_err(data.g_inv[a][b], truth[0][a, b]) < 1e-6
                for m in (1, 2, 3):
                    rec = data.normal_derivs[m - 1][a][b]
                    assert rel_err(rec, truth[m][a, b]) < 1e-6, (n, seed, m, a, b)
        assert data.diagnostics["quadraticity"] < 1e-9
        assert data.diagnostics["imaginary"] < 1e-9


def test_roundtrip_degenerate_coefficient_boundary():
    # lambda + mu = 0 is admitted; the rank-structured parts of the
    # factorization vanish and recovery must still invert cleanly
    chart = JetContext(2, 7, (1.0,))
    x1, xn = Jet.x_var(chart, 0), Jet.x_var(chart, 1)
    metric = MetricJet(chart, [[1 + 0.2 * x1 - 0.3 * xn + 0.1 * xn * xn]])
    lame = LameJet.constant(chart, -1.0, 1.0)
    from elastic_dtn.scenes import SceneConfig

    cfg = SceneConfig(2, 7, chart.base_covector, metric, lame, chart)
    obs, _ = forward_observed(cfg, 2)
    data = recover_full(obs, 2)
    truth = true_inverse_derivatives(cfg, 2)
    for m in range(3):
        block = data.g_inv if m == 0 else data.normal_derivs[m - 1]
        assert rel_err(block[0][0], truth[m][0, 0]) < 1e-8, m


def test_recovered_trace_matches_truth():
    scene = random_scene(55, dimension=3, truncation_order=7)
    obs, _ = forward_observed(scene, 2)
    data = recover_full(obs, 2)
    g_low_true = scene.metric.tangential_matrix().at_boundary()
    truth = true_inverse_derivatives(scene, 2)
    for m in (1, 2):
        rec_trace = Jet.zero(scene.context)
        true_trace = Jet.zero(scene.context)
        for a in range(2):
            for b in range(2):
                rec_trace = rec_trace + g_low_true[a, b] * data.normal_derivs[m - 1][a][b]
                true_trace = true_trace + g_low_true[a, b] * truth[m][a, b]
        assert (rec_trace - true_trace).max_abs() < 1e-9


def test_peeling_locality():
    # an order-2 metric change must leave order-0 and order-1 output alone
    base = random_scene(60, dimension=2, truncation_order=7)
    chart = base.context
    xn = Jet.x_var(chart, 1)
    bumped = MetricJet(chart, [[base.metric.entries[0][0]
                                + 0.2 * 0.5 * xn * xn]])
    obs_a, _ = forward_observed(base, 3)
    from elastic_dtn.scenes import SceneConfig

    cfg_b = SceneConfig(2, 7, base.base_covector, bumped, base.lame, chart)
    obs_b, _ = forward_observed(cfg_b, 3)
    data_a = recover_full(obs_a, 3)
    data_b = recover_full(obs_b, 3)
    assert (data_a.g_inv[0][0] - data_b.g_inv[0][0]).max_abs() < 1e-10
    assert (data_a.normal_derivs[0][0][0]
            - data_b.normal_derivs[0][0][0]).max_abs() < 1e-10
    assert (data_a.normal_derivs[1][0][0]
            - data_b.normal_derivs[1][0][0]).max_abs() > 1e-3


def test_observed_symbols_validation():
    scene = random_scene(70, dimension=2, truncation_order=6)
    obs, ctx = forward_observed(scene, 1)
    q = dtn_symbols(ctx, 1)
    import dataclasses

    with pytest.raises(SceneError):
        ObservedSymbols(dataclasses.replace(q, kind="q"), scene.lame,
                        scene.context)
    with pytest.raises(SceneError):
        obs.require_depth(5)
    with pytest.raises(SceneError):
        recover_full(obs, 3)  # only depth 1 available
    negated = dataclasses.replace(
        obs.p, levels={d: m * (-1.0) for d, m in obs.p.levels.items()})
    with pytest.raises(SceneError):
        ObservedSymbols(negated, scene.lame, scene.context)


def test_recovered_data_validation():
    ctx = JetContext(3, 5, (1.0, 0.5))
    good = ((Jet.constant(ctx, 1.0), Jet.zero(ctx)),
            (Jet.zero(ctx), Jet.constant(ctx, 1.0)))
    RecoveredBoundaryData(ctx, good)
    with pytest.raises(ValueError):
        RecoveredBoundaryData(ctx, ((Jet.constant(ctx, -1.0), Jet.zero(ctx)),
                                    (Jet.zero(ctx), Jet.constant(ctx, 1.0))))
    with pytest.raises(ValueError):
        asym = ((Jet.constant(ctx, 1.0), Jet.constant(ctx, 0.3)),
                (Jet.zero(ctx), Jet.constant(ctx, 1.0)))
        RecoveredBoundaryData(ctx, asym)


def test_cross_check_mode():
    scene = random_scene(81, dimension=2, truncation_order=6)
    obs, _ = forward_observed(scene, 1)
    data = recover_full(obs, 1, cross_check=True)
    assert data.diagnostics["cross_check"] < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_noise_above_level_accuracy_leaves_recovery_unchanged(n):
    """Soundness of the accuracy bookkeeping, through the symbols document."""
    scene = random_scene(90 + n, dimension=n, truncation_order=6, order=3)
    observed, _ = forward_observed(scene, 3)
    doc = symbols_to_json(observed.p, scene.lame, scene.context)
    clean = recovered_to_json(recover_full(observed_from_json(doc), 3))

    rng = np.random.default_rng(n)
    noised = 0
    for key, level in doc["levels"].items():
        above = [" ".join(map(str, m)) for m in scene.context.monomials
                 if sum(m) > doc["accuracy"][key]]
        for row in level:
            for jet_map in row:
                for exps in above:
                    jet_map[exps] = list(rng.uniform(-1.0, 1.0, size=2))
                    noised += 1
    assert noised
    noisy = recovered_to_json(recover_full(observed_from_json(doc), 3))
    assert canonical_json(noisy) == canonical_json(clean)
