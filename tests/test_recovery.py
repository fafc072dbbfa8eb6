import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix, reciprocal
from elastic_dtn.geometry import LameJet, MetricJet, leading_coefficient_inverse
from elastic_dtn.recovery import (
    ConsistencyError,
    ObservedSymbols,
    RecoveredBoundaryData,
    _peeling_trust,
    _realify,
    _reference_level,
    _reference_metric,
    boundary_factorization,
    extract_quadratic,
    extract_quadratic_sampled,
    lin_inverse,
    recover_full,
    recover_order0,
)
from elastic_dtn.scenes import (
    SceneError,
    canonical_json,
    random_scene,
    scene_from_json,
    scene_to_json,
)
from elastic_dtn.serialize import (
    observed_from_json,
    recovered_to_json,
    symbols_to_json,
)
from elastic_dtn.symbols import (
    build_context,
    dtn_symbols,
    p_level,
    q_levels,
    solve_q,
)

from oracles import order1_form, xi_up_by_double_inversion
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
    assert block[0][0].allclose(0.0) and block[1][1].allclose(0.0)

    x1 = Jet.variable(ctx, 0)
    block, _ = extract_quadratic((1 + x1) * xi * xi)
    assert block[0][0].allclose(1 + x1)


def test_extract_quadratic_gate():
    # a jet of another homogeneity degree is no quadratic form
    ctx = JetContext(2, 5, (1.0,))
    xi = Jet.xi_component(ctx, 0)
    with pytest.raises(ConsistencyError, match="homogeneity degree 3"):
        extract_quadratic(xi * xi * xi)
    # a jet of degree 2 that is not a form fails the residual gate: a
    # factor that depends on the direction of xi, or a rational term
    ctx3 = JetContext(3, 5, (1.0, 0.5))
    xi1, xi2 = (Jet.xi_component(ctx3, a) for a in range(2))
    direction = Jet.variable(ctx3, ctx3.xi_index(0))
    for contaminated in (xi1 * xi1 * (1 + 0.001 * direction),
                         xi1 * xi1 + 0.001 * xi2 * xi2 * xi2 * reciprocal(xi1)):
        with pytest.raises(ConsistencyError, match="residual"):
            extract_quadratic(contaminated)


def test_extract_quadratic_sampled_agrees():
    ctx = JetContext(3, 5, (0.8, -1.1))
    xi1 = Jet.xi_component(ctx, 0)
    xi2 = Jet.xi_component(ctx, 1)
    x1 = Jet.variable(ctx, 0)
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
    assert lin_inverse(zero, ctx).allclose(0.0)
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
    metric = MetricJet(ctx_chart, JetMatrix.identity(ctx_chart, 1))
    lame = LameJet.constant(ctx_chart, -1.0, 1.0)
    ctx = build_context(metric, lame, ctx_chart)
    X = JetMatrix.identity(ctx_chart, 2)
    expected = X * (2 * ctx.norm)
    assert lin_inverse(X, ctx).allclose(expected)


def test_recover_order0_euclidean():
    ctx_chart = JetContext(2, 6, (1.0,))
    scene_metric = MetricJet(ctx_chart, JetMatrix.identity(ctx_chart, 1))
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
    metric = MetricJet(ctx_chart, [[1 + Jet.variable(ctx_chart, 1)]])
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


@pytest.mark.parametrize("n, K", [(2, 6), (3, 6), (4, 5)])
def test_order1_and_the_boundary_factorization_match_their_former_routes(n, K):
    """Order 1 is read by the rule of every order, the (n,n) entry of
    A^-1 delta times (lambda+3mu)^2 (lambda+2mu)/mu^2, where it was once
    delta[n,n] times (lambda+3mu)^2/mu^2; and the boundary factorization
    raises the covector with the recovered block g^{ab}, where it once
    inverted the full metric built from its inverse."""
    scene = random_scene(120 + n, dimension=n, truncation_order=K, order=1)
    observed, _ = forward_observed(scene, 1)
    g_inv, _ = recover_order0(observed)
    boundary = boundary_factorization(observed, g_inv)
    partial = RecoveredBoundaryData(scene.context, g_inv)
    reference = _reference_level(observed, partial, 1,
                                 _peeling_trust(partial, 1))
    delta = observed.p.level(0).at_boundary() - reference
    nn = n - 1
    ainv = leading_coefficient_inverse(boundary.lame, scene.context)
    one_rule = -(ainv @ delta)[nn, nn] * boundary.peeling_scale \
        * boundary.norm_sq
    former = order1_form(delta[nn, nn], boundary.lame, boundary.norm_sq)
    assert one_rule.accuracy == former.accuracy
    assert (one_rule - former).max_abs() <= 1e-13 * former.max_abs()
    for a, up in enumerate(xi_up_by_double_inversion(g_inv, scene.context)):
        assert boundary.xi_up[a].accuracy == up.accuracy, a
        assert (boundary.xi_up[a] - up).max_abs() <= 1e-13 * up.max_abs(), a


def test_trace_denominator_dimension3():
    scene = random_scene(77, dimension=3, truncation_order=6)
    lame = LameJet.constant(scene.context, 1.0, 1.0)
    from elastic_dtn.scenes import SceneConfig

    cfg = SceneConfig(scene.metric, lame, scene.context)
    obs, _ = forward_observed(cfg, 1)
    data = recover_full(obs, 1)
    assert data.diagnostics["peeling"][1]["trace_denominator"] == pytest.approx(11.0)


def test_euclidean_recover_all_orders_zero():
    ctx_chart = JetContext(2, 6, (1.0,))
    metric = MetricJet(ctx_chart, JetMatrix.identity(ctx_chart, 1))
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
    x1, xn = Jet.variable(chart, 0), Jet.variable(chart, 1)
    metric = MetricJet(chart, [[1 + 0.2 * x1 - 0.3 * xn + 0.1 * xn * xn]])
    lame = LameJet.constant(chart, -1.0, 1.0)
    from elastic_dtn.scenes import SceneConfig

    cfg = SceneConfig(metric, lame, chart)
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
    xn = Jet.variable(chart, 1)
    bumped = MetricJet(chart, [[base.metric.tangential_matrix()[0, 0]
                                + 0.2 * 0.5 * xn * xn]])
    obs_a, _ = forward_observed(base, 3)
    from elastic_dtn.scenes import SceneConfig

    cfg_b = SceneConfig(bumped, base.lame, chart)
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
    RecoveredBoundaryData(ctx, JetMatrix.identity(ctx, 2))
    with pytest.raises(ValueError):
        RecoveredBoundaryData(ctx, JetMatrix.diagonal(ctx, [-1.0, 1.0]))
    with pytest.raises(ValueError):
        asym = JetMatrix(ctx, [[Jet.constant(ctx, 1.0), Jet.constant(ctx, 0.3)],
                               [Jet.zero(ctx), Jet.constant(ctx, 1.0)]])
        RecoveredBoundaryData(ctx, asym)
    with pytest.raises(ValueError):
        RecoveredBoundaryData(ctx, JetMatrix.identity(ctx, 3))  # wrong shape


def test_realify_names_the_first_failing_entry():
    ctx = JetContext(3, 4, (1.0, 0.5))
    small, big = Jet.constant(ctx, 1.0 + 1e-12j), Jet.constant(ctx, 1.0 + 1e-6j)
    block = JetMatrix(ctx, [[small, small], [big, big * 2.0]])
    message = r"^entry \(1,0\): imaginary residual 1e-06 exceeds 1e-09$"
    with pytest.raises(ConsistencyError, match=message):
        _realify(block, 1e-9, "entry")
    real, worst = _realify(JetMatrix(ctx, [[small]]), 1e-9, "entry")
    assert worst == 1e-12 and real.max_imag() == 0.0


def test_cross_check_mode():
    scene = random_scene(81, dimension=2, truncation_order=6)
    obs, _ = forward_observed(scene, 1)
    data = recover_full(obs, 1, cross_check=True)
    assert data.diagnostics["cross_check"] < 1e-8


@pytest.mark.parametrize("xi0", [(0.0, 1.2), (-0.9, 0.0), (0.7, -0.7),
                                 (0.0, 0.0, -1.1), (0.5, 0.0, 0.5)])
def test_cross_check_samples_every_base_covector(xi0):
    """Polarization samples only covectors v with v . xi0 != 0, which
    scale onto the hyperplane; base covectors with zero components, or
    whose components cancel, have coordinate vectors and pairwise sums
    orthogonal to them."""
    scene = random_scene(82, dimension=len(xi0) + 1, truncation_order=5,
                         order=1)
    doc = scene_to_json(scene)
    doc["base_covector"] = list(xi0)
    scene = scene_from_json(doc)
    obs, _ = forward_observed(scene, 1)
    data = recover_full(obs, 1, cross_check=True)
    assert data.diagnostics["cross_check"] < 1e-12


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


@pytest.mark.parametrize("n", [2, 3])
def test_trimmed_reference_level_matches_full_degree_run(n):
    """The reference run stops at the degree peeling reads, trust + 2.

    Up to that degree its level of degree 1 - m is bit-identical to the
    level of a reference run trusted to the full truncation order K.
    """
    K, M = 6, 3
    scene = random_scene(110 + n, dimension=n, truncation_order=K, order=M)
    observed, _ = forward_observed(scene, M)
    data = recover_full(observed, M)
    chart = scene.context
    for m in range(1, M + 1):
        trust = _peeling_trust(data, m)
        trimmed = _reference_level(observed, data, m, trust)
        ctx_full = build_context(_reference_metric(chart, data, m, K),
                                 scene.lame, chart)
        full = p_level(ctx_full, q_levels(ctx_full, m - 1), 1 - m).at_boundary()
        assert trimmed.accuracy == trust + 2, (m, trust)
        assert full.accuracy >= trust + 2, (m, trust)
        kept = chart.sizes[trust + 2]
        for i in range(n):
            for j in range(n):
                assert len(trimmed[i, j].coeffs) == kept, (m, i, j)
                assert np.array_equal(trimmed[i, j].coeffs,
                                      full[i, j].coeffs[:kept]), (m, i, j)


def test_every_jet_stores_only_its_trusted_coefficients():
    K, M = 6, 3
    scene = random_scene(7, dimension=3, truncation_order=K, order=M)
    observed, _ = forward_observed(scene, M)
    loaded = observed_from_json(symbols_to_json(observed.p, scene.lame,
                                                scene.context))
    data = recover_full(observed, M)
    jets = [level[i, j] for symbols in (observed, loaded)
            for level in symbols.p.levels.values()
            for i in range(level.rows) for j in range(level.cols)]
    jets += [e for block in (data.g_inv, *data.normal_derivs)
             for row in block for e in row]
    assert min(e.accuracy for e in jets) < K
    for e in jets:
        assert len(e.coeffs) == e.context.sizes[e.accuracy], e.accuracy


def test_deep_peeling_order_7_of_a_pooled_scene():
    # the (2,10,7) scene of the benchmark pools that once failed the 1e-9
    # imaginary gate at order 7 with a residual of 1.24e-9, when levels
    # were stored over a cotangent offset variable; on the hyperplane
    # chart of n = 2, which has no cotangent variable, it reads 1.8e-12
    scene = random_scene(916122595, dimension=2, truncation_order=10, order=7)
    observed, _ = forward_observed(scene, 7)
    data = recover_full(observed, 7)
    assert data.diagnostics["peeling"][7]["imaginary"] < 1e-10


@pytest.mark.parametrize("n,K,M", [(2, 10, 7), (3, 7, 4), (4, 5, 2)])
def test_recovered_blocks_are_sound_and_their_slack_is_known(n, K, M):
    """Every recovered block matches the truth to its stated accuracy A.

    One degree above, a block is recovered from levels trusted one degree
    further than their document says: the levels of the chart of K,
    zero-extended by one degree, on the chart of K + 1.  Where A is tight,
    the block misses the truth at degree A + 1.  That holds at order 0 for
    n >= 3, whose Hessian in xi reads two degrees of the hyperplane
    offsets.  The accounting is pessimistic, and the block matches the
    truth at A + 1, at order 0 for n = 2, where dxi is Euler's scaling
    alone yet drops a degree, and at every order m >= 1, where the
    boundary factorization is quadratic in the offsets with x-coefficients
    trusted beyond its total degree.
    """
    scene = random_scene(5, dimension=n, truncation_order=K, order=M)
    levels = dtn_symbols(build_context(scene.metric, scene.lame,
                                       scene.context), M)
    stated = recover_full(ObservedSymbols(levels, scene.lame, scene.context), M)
    doc = symbols_to_json(levels, scene.lame, scene.context)
    doc["chart"]["truncation_order"] = K + 1
    doc["accuracy"] = {d: a + 1 for d, a in doc["accuracy"].items()}
    further = recover_full(observed_from_json(doc), M)
    truth = true_inverse_derivatives(scene, M)
    sizes = scene.context.spatial.sizes
    for m in range(M + 1):
        block = stated.g_inv if m == 0 else stated.normal_derivs[m - 1]
        above = further.g_inv if m == 0 else further.normal_derivs[m - 1]
        accuracy = block.accuracy
        assert above.accuracy == accuracy + 1, m
        true = truth[m].coeffs
        scale = max(np.abs(true).max(), 1.0)
        assert np.abs(block.coeffs - true[..., :sizes[accuracy]]).max() \
            <= 1e-9 * scale, m
        top = slice(sizes[accuracy], sizes[accuracy + 1])
        gap = np.abs(above.coeffs[..., top] - true[..., top]).max() / scale
        if m == 0 and n >= 3:
            assert gap > 1e-6, m
        else:
            assert gap <= 1e-9, m
