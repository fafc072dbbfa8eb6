import numpy as np
import pytest

from elastic_dtn import AccuracyExhausted, Jet, JetContext, JetMatrix, mat_inverse
from elastic_dtn.geometry import LameJet, MetricJet, assemble_full_metric
from elastic_dtn.scenes import random_scene, scene_from_json, scene_to_json
from elastic_dtn.symbols import (
    SymbolLevels,
    build_context,
    build_E,
    dtn_symbols,
    p_level,
    plane_wave_consistency,
    q1,
    q_levels,
    solve_q,
)

from oracles import homogeneous_value, p1_closed_form


def euclidean_context(n=2, K=6, xi0=None, lam=1.0, mu=1.0):
    ctx = JetContext(n, K, xi0 or (1.0,) * (n - 1))
    metric = MetricJet(ctx, JetMatrix.identity(ctx, ctx.dimension - 1))
    lame = LameJet.constant(ctx, lam, mu)
    return build_context(metric, lame, ctx), metric, lame


def hand_scene_context(K=6):
    """n=2, g_11 = 1 + x_n, lambda = mu = 1, base covector 1."""
    ctx = JetContext(2, K, (1.0,))
    metric = MetricJet(ctx, [[1 + Jet.variable(ctx, 1)]])
    lame = LameJet.constant(ctx, 1.0, 1.0)
    return build_context(metric, lame, ctx), metric, lame


def random_context(seed, dimension=2, K=6):
    scene = random_scene(seed, dimension=dimension, truncation_order=K)
    return build_context(scene.metric, scene.lame, scene.context), scene


def principal_p(ctx):
    """The boundary level of degree 1, from the principal factor level."""
    return p_level(ctx, SymbolLevels("q", {1: q1(ctx)}), 1)


def assert_entry(matrix, i, j, value, tol=1e-12):
    assert abs(matrix[i, j].constant_term - value) < tol, (
        f"entry ({i},{j}) = {matrix[i, j].constant_term}, expected {value}")


def test_context_euclidean_closed_forms():
    ctx, _, _ = euclidean_context()
    assert_entry(ctx.b1, 0, 1, 2j)
    assert_entry(ctx.b1, 1, 0, 2j / 3)
    assert_entry(ctx.b1, 0, 0, 0)
    assert_entry(ctx.c2, 0, 0, -3.0)
    assert_entry(ctx.c2, 1, 1, -1.0 / 3.0)
    assert_entry(ctx.c2, 0, 1, 0)
    assert_entry(ctx.f1, 0, 0, 1.0)
    assert_entry(ctx.f1, 0, 1, 1j)
    assert_entry(ctx.f1, 1, 0, 1j)
    assert_entry(ctx.f1, 1, 1, -1.0)
    assert ctx.b0.allclose(0.0) and ctx.c1.allclose(0.0) and ctx.c0.allclose(0.0)


def test_q1_euclidean_and_degenerate():
    ctx, _, _ = euclidean_context()
    principal = q1(ctx)
    assert_entry(principal, 0, 0, 1.5)
    assert_entry(principal, 0, 1, 0.5j)
    assert_entry(principal, 1, 0, 0.5j)
    assert_entry(principal, 1, 1, 0.5)
    # lambda + mu = 0 collapses the rank-structured part
    ctx0, _, _ = euclidean_context(lam=-1.0, mu=1.0)
    expected = JetMatrix.identity(ctx0.chart, 2) * ctx0.norm
    assert q1(ctx0).allclose(expected)


def test_riccati_identity_random_scenes():
    for n in (2, 3):
        for seed in range(3):
            ctx, _ = random_context(seed, dimension=n)
            principal = q1(ctx)
            residual = principal @ principal - ctx.b1 @ principal + ctx.c2
            assert residual.max_abs() < 1e-10


def test_f_matrices_nilpotent_and_b1_bridge():
    for seed in range(3):
        ctx, _ = random_context(seed, dimension=3)
        assert (ctx.f1 @ ctx.f1).max_abs() < 1e-12
        assert (ctx.f2 @ ctx.f2).max_abs() < 1e-12
        bridge = (ctx.f1 - ctx.f2) * ctx.s2
        assert bridge.allclose(ctx.b1, tol=1e-11)


def random_matrix(ctx, rng, degree=2):
    n = ctx.chart.dimension
    entries = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            for m in ctx.chart.monomials:
                if sum(m) > degree:
                    continue
                coeffs[m] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            row.append(Jet.from_coefficients(ctx.chart, coeffs))
        entries.append(row)
    return JetMatrix(ctx.chart, entries)


def test_solve_q_zero_and_defining_equation():
    ctx, _ = random_context(4, dimension=2)
    zero = JetMatrix.zeros(ctx.chart, 2, 2)
    assert solve_q(zero, ctx).allclose(0.0)
    rng = np.random.default_rng(0)
    principal = q1(ctx)
    for _ in range(3):
        E = random_matrix(ctx, rng)
        X = solve_q(E, ctx)
        residual = principal @ X + X @ principal - ctx.b1 @ X - E
        assert residual.max_abs() < 1e-10


def test_solve_q_expansion_oracle():
    # Expansion of the solution through the nilpotent algebra: with
    # a = s2/(2r), the solution equals (E - a(F2 E + E F1) + 2 a^2 F2 E F1)/(2r).
    ctx, _ = random_context(9, dimension=3)
    rng = np.random.default_rng(1)
    a = 0.5 * ctx.s2 * ctx.inv_norm
    half = 0.5 * ctx.inv_norm
    for _ in range(2):
        E = random_matrix(ctx, rng)
        expected = (E - (ctx.f2 @ E + E @ ctx.f1) * a
                    + (ctx.f2 @ E @ ctx.f1) * (2.0 * a * a)) * half
        assert solve_q(E, ctx).allclose(expected, tol=1e-12)


def test_build_E_euclidean_cascade():
    ctx, _, _ = euclidean_context(K=6)
    levels = q_levels(ctx, depth=3)
    assert build_E(-1, levels, ctx).max_abs() < 1e-13
    assert build_E(0, levels, ctx).max_abs() < 1e-13
    assert build_E(1, levels, ctx).max_abs() < 1e-12
    for degree in (0, -1, -2, -3):
        assert levels.levels[degree].max_abs() < 1e-12


def test_hand_scene_frozen_values():
    # Frozen by hand from the displayed boundary combinations: both
    # (F2 E1)^n_n and (E1 F1)^n_n equal -7/12 at the base point, the
    # degree-0 factor level has (n,n) entry 1/4, and so does the
    # degree-0 boundary level.
    ctx, _, _ = hand_scene_context(K=6)
    levels = q_levels(ctx, depth=1)
    E1 = build_E(-1, {1: levels.levels[1]}, ctx)
    f2e1 = (ctx.f2 @ E1)[1, 1].constant_term
    e1f1 = (E1 @ ctx.f1)[1, 1].constant_term
    assert abs(f2e1 - (-7.0 / 12.0)) < 1e-12
    assert abs(e1f1 - (-7.0 / 12.0)) < 1e-12
    assert abs(levels.levels[0][1, 1].constant_term - 0.25) < 1e-12
    symbols = dtn_symbols(ctx, 1)
    assert abs(symbols.level(0)[1, 1].constant_term - 0.25) < 1e-12


def test_build_E_missing_level():
    ctx, _, _ = euclidean_context()
    with pytest.raises(KeyError):
        build_E(0, {1: q1(ctx)}, ctx)


def test_dtn_symbols_euclidean_closed_form():
    ctx, _, _ = euclidean_context(K=6)
    symbols = dtn_symbols(ctx, 2)
    p1 = symbols.level(1)
    assert_entry(p1, 0, 0, 1.5)
    assert_entry(p1, 0, 1, -0.5j)
    assert_entry(p1, 1, 0, 0.5j)
    assert_entry(p1, 1, 1, 1.5)
    assert symbols.level(0).max_abs() < 1e-10
    assert symbols.level(-1).max_abs() < 1e-10
    assert symbols.level(-2).max_abs() < 1e-10


def test_p1_nn_entry_closed_form_random():
    for seed in range(3):
        ctx, scene = random_context(seed, dimension=3)
        from elastic_dtn.jets import reciprocal

        lam, mu = ctx.lame.lam, ctx.lame.mu
        expected = 2 * mu * (lam + 2 * mu) * reciprocal(lam + 3 * mu) * ctx.norm
        n = scene.dimension
        assert principal_p(ctx)[n - 1, n - 1].allclose(expected, tol=1e-10)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_p1_matches_its_closed_form_entry_by_entry(dimension):
    for seed in range(1, 4):
        scene = random_scene(seed, dimension=dimension, truncation_order=4,
                             order=1)
        ctx = build_context(scene.metric, scene.lame, scene.context)
        p1, oracle = principal_p(ctx), p1_closed_form(ctx)
        assert (p1.accuracy, p1.degree) == (oracle.accuracy, oracle.degree)
        for i in range(dimension):
            for j in range(dimension):
                scale = oracle[i, j].max_abs()
                assert scale > 0
                assert (p1[i, j] - oracle[i, j]).max_abs() <= 1e-12 * scale


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_b1_is_linear_in_xi(dimension):
    # build_E folds b1 into the composition sum with its first derivatives
    # alone; a b1 with a second xi-derivative would be dropped from E_m
    for seed in range(1, 4):
        scene = random_scene(seed, dimension=dimension, truncation_order=4)
        ctx = build_context(scene.metric, scene.lame, scene.context)
        assert ctx.b1.coeffs.any()
        for a in range(dimension - 1):
            first = ctx.b1.dxi(a)
            for b in range(dimension - 1):
                assert not first.dxi(b).coeffs.any()


def test_p1_self_adjoint_with_metric_weight():
    # (g p1) is Hermitian; entrywise Hermitian holds in the Euclidean case.
    ctx, _, _ = euclidean_context(K=5)
    def hermitian(m):
        return np.all(np.abs(m.coeffs - np.conj(m.coeffs).transpose(1, 0, 2))
                      <= 1e-10)

    assert hermitian(principal_p(ctx))
    for seed in range(2):
        ctx, scene = random_context(seed, dimension=3)
        assert hermitian(ctx.geo.g @ principal_p(ctx))


def test_dtn_symbols_requires_margin():
    ctx, _, _ = euclidean_context(K=4)
    with pytest.raises(AccuracyExhausted):
        dtn_symbols(ctx, 2)


def test_plane_wave_consistency():
    ctx, _, _ = euclidean_context(K=5)
    report = plane_wave_consistency(ctx)
    assert report["max_residual"] < 1e-13
    for n in (2, 3):
        for seed in range(3):
            ctx, scene = random_context(seed, dimension=n, K=5)
            report = plane_wave_consistency(ctx)
            assert report["max_residual"] < 1e-9, (n, seed, report)


def _boundary_inverse_data(scene):
    """True boundary jets: g^{ab}, its first two normal derivatives."""
    ginv_t = mat_inverse(scene.metric.tangential_matrix())
    g0 = ginv_t.at_boundary()
    g1 = ginv_t.dx(scene.dimension - 1).at_boundary()
    g2 = ginv_t.dx(scene.dimension - 1).dx(scene.dimension - 1).at_boundary()
    return ginv_t, g0, g1, g2


def _quadratic_form(ctx_chart, k_matrix):
    nn = ctx_chart.dimension - 1
    xi = [Jet.xi_component(ctx_chart, a) for a in range(nn)]
    acc = Jet.zero(ctx_chart)
    for a in range(nn):
        for b in range(nn):
            acc = acc + k_matrix[a][b] * xi[a] * xi[b]
    return acc


def test_difference_law_first_order():
    # Perturbing only the first normal-order metric coefficients moves the
    # degree-zero boundary level's (n,n) entry by exactly the quadratic
    # form built from the first-order recovery combination.
    scene = random_scene(21, dimension=2, truncation_order=6)
    ctx_a = build_context(scene.metric, scene.lame, scene.context)
    chart = scene.context
    xn = Jet.variable(chart, 1)
    delta = 0.3
    entries_b = [[scene.metric.tangential_matrix()[0, 0] + delta * xn]]
    metric_b = MetricJet(chart, entries_b)
    ctx_b = build_context(metric_b, scene.lame, chart)

    sym_a = dtn_symbols(ctx_a, 0)
    sym_b = dtn_symbols(ctx_b, 0)
    diff = (sym_b.level(0)[1, 1] - sym_a.level(0)[1, 1]).at_boundary()

    lam = scene.lame.lam.at_boundary()
    mu = scene.lame.mu.at_boundary()
    from elastic_dtn.jets import reciprocal

    ginv_a = mat_inverse(scene.metric.tangential_matrix())
    ginv_b = mat_inverse(metric_b.tangential_matrix())
    g_low = scene.metric.tangential_matrix().at_boundary()

    def k1(ginv_t):
        g0 = ginv_t.at_boundary()
        g1 = ginv_t.dx(1).at_boundary()
        h1 = g_low[0, 0] * g1[0, 0]
        return [[(2 * lam + 5 * mu) * h1 * g0[0, 0]
                 - (lam + 2 * mu) * g1[0, 0]]]

    delta_k = [[k1(ginv_b)[0][0] - k1(ginv_a)[0][0]]]
    law = -(mu * mu) * _quadratic_form(chart, delta_k) \
        * reciprocal((lam + 3 * mu) * (lam + 3 * mu)) \
        * reciprocal(ctx_a.norm_sq.at_boundary())
    assert diff.allclose(law, tol=1e-9)


def test_difference_law_first_order_dimension3():
    # same law with a full 2x2 tangential block: checks every index
    # contraction in the first-order recovery combination
    scene = random_scene(23, dimension=3, truncation_order=6)
    chart = scene.context
    ctx_a = build_context(scene.metric, scene.lame, chart)
    xn = Jet.variable(chart, 2)
    bump = [[0.25, -0.15], [-0.15, 0.1]]
    entries_b = [[scene.metric.tangential_matrix()[a, b] + bump[a][b] * xn
                  for b in range(2)] for a in range(2)]
    metric_b = MetricJet(chart, entries_b)
    ctx_b = build_context(metric_b, scene.lame, chart)

    diff = (dtn_symbols(ctx_b, 0).level(0)[2, 2]
            - dtn_symbols(ctx_a, 0).level(0)[2, 2]).at_boundary()

    lam = scene.lame.lam.at_boundary()
    mu = scene.lame.mu.at_boundary()
    from elastic_dtn.jets import reciprocal

    g_low = scene.metric.tangential_matrix().at_boundary()

    def k1(metric):
        ginv_t = mat_inverse(metric.tangential_matrix())
        g0 = ginv_t.at_boundary()
        g1 = ginv_t.dx(2).at_boundary()
        h1 = Jet.zero(chart)
        for a in range(2):
            for b in range(2):
                h1 = h1 + g_low[a, b] * g1[a, b]
        return [[(2 * lam + 5 * mu) * h1 * g0[a, b]
                 - (lam + 2 * mu) * g1[a, b] for b in range(2)]
                for a in range(2)]

    ka, kb = k1(scene.metric), k1(metric_b)
    delta_k = [[kb[a][b] - ka[a][b] for b in range(2)] for a in range(2)]
    law = -(mu * mu) * _quadratic_form(chart, delta_k) \
        * reciprocal((lam + 3 * mu) * (lam + 3 * mu)) \
        * reciprocal(ctx_a.norm_sq.at_boundary())
    assert diff.allclose(law, tol=1e-9)


def test_difference_law_second_order():
    # Same statement one level down: a pure second-normal-order metric
    # perturbation moves the degree-zero right-hand side's (n,n) entry by
    # the second-order recovery combination.
    scene = random_scene(22, dimension=2, truncation_order=6)
    chart = scene.context
    ctx_a = build_context(scene.metric, scene.lame, chart)
    xn = Jet.variable(chart, 1)
    delta = 0.4
    g11 = scene.metric.tangential_matrix()[0, 0]
    metric_b = MetricJet(chart, [[g11 + delta * 0.5 * xn * xn]])
    ctx_b = build_context(metric_b, scene.lame, chart)

    levels_a = q_levels(ctx_a, depth=1)
    levels_b = q_levels(ctx_b, depth=1)
    e0_a = build_E(0, levels_a, ctx_a)
    e0_b = build_E(0, levels_b, ctx_b)
    diff = (e0_b[1, 1] - e0_a[1, 1]).at_boundary()

    lam = scene.lame.lam.at_boundary()
    mu = scene.lame.mu.at_boundary()
    from elastic_dtn.jets import reciprocal

    g_low = scene.metric.tangential_matrix().at_boundary()

    def k2(metric):
        ginv_t = mat_inverse(metric.tangential_matrix())
        g0 = ginv_t.at_boundary()
        g2 = ginv_t.dx(1).dx(1).at_boundary()
        h2 = g_low[0, 0] * g2[0, 0]
        return [[(2 * lam + 5 * mu) * h2 * g0[0, 0]
                 - (lam + 2 * mu) * g2[0, 0]]]

    delta_k = [[k2(metric_b)[0][0] - k2(scene.metric)[0][0]]]
    law = -(mu * mu) * _quadratic_form(chart, delta_k) \
        * reciprocal((lam + 3 * mu) * (lam + 3 * mu)) \
        * reciprocal(lam + 2 * mu) \
        * reciprocal(ctx_a.norm_sq.at_boundary())
    assert diff.allclose(law, tol=1e-9)


def test_symbol_levels_structure():
    ctx, _, _ = euclidean_context()
    with pytest.raises(ValueError):
        SymbolLevels("p", {1: principal_p(ctx), -1: principal_p(ctx)})  # gap
    with pytest.raises(ValueError):
        SymbolLevels("x", {1: principal_p(ctx)})
    levels = dtn_symbols(ctx, 1)
    assert levels.depth == 1
    assert levels.min_degree == -1
    with pytest.raises(KeyError):
        levels.level(-3)


@pytest.mark.parametrize("n,K,M", [(2, 6, 3), (3, 6, 3), (4, 5, 2)])
@pytest.mark.parametrize("scale", [2.5, 0.4])
def test_levels_scale_with_the_base_covector(n, K, M, scale):
    """A level of degree d on the chart of s xi0 is s^(d - |beta|) times the
    level on the chart of xi0, coefficient by coefficient, beta the
    exponent of the hyperplane offsets.

    The two charts share their basis E, and xi = s xi0 + E t' is
    s (xi0 + E t'/s), so this holds for homogeneous levels alone; a wrong
    degree, or a level that is not homogeneous, breaks it.
    """
    for seed in (1, 2):
        scene = random_scene(seed, dimension=n, truncation_order=K, order=M)
        doc = scene_to_json(scene)
        doc["base_covector"] = [scale * v for v in scene.base_covector]
        scaled = scene_from_json(doc)
        t_degree = scene.context._exps[:, n:].sum(axis=1)
        for levels in (q_levels, dtn_symbols):
            here = levels(build_context(scene.metric, scene.lame,
                                        scene.context), M)
            there = levels(build_context(scaled.metric, scaled.lame,
                                         scaled.context), M)
            for degree, level in here.levels.items():
                other = there.levels[degree]
                assert (level.degree, other.degree) == (degree, degree)
                size = level.coeffs.shape[-1]
                expected = level.coeffs * scale ** (degree - t_degree[:size])
                assert np.allclose(other.coeffs, expected, rtol=1e-11,
                                   atol=1e-12 * np.abs(expected).max()), (
                    seed, here.kind, degree)


@pytest.mark.parametrize("n,K,M", [(2, 6, 3), (3, 6, 3), (4, 5, 2)])
def test_level_derivatives_in_xi_match_the_homogeneous_extension(n, K, M):
    """dxi of every level against central differences of the level
    extended by homogeneity off the hyperplane, at x = 0 and xi0.

    The extension evaluates the level at offsets of the order of the step,
    where the coefficients it does not store weigh less than roundoff.
    """
    h = 1e-5
    scene = random_scene(3, dimension=n, truncation_order=K, order=M)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    xi0 = np.array(scene.base_covector)
    x = (0.0,) * n
    for levels in (q_levels(ctx, M), dtn_symbols(ctx, M)):
        for degree, level in levels.levels.items():
            for a in range(n - 1):
                derivative = level.dxi(a)
                step = h * np.eye(n - 1)[a]
                for i in range(n):
                    for j in range(n):
                        fd = (homogeneous_value(level[i, j], x, xi0 + step)
                              - homogeneous_value(level[i, j], x, xi0 - step)
                              ) / (2 * h)
                        assert abs(derivative[i, j].constant_term - fd) < 1e-7, (
                            levels.kind, degree, a, i, j)


def _keep_a_degree(derivative):
    """``derivative`` taken after zero-extending its operand by one degree,
    so that it keeps the operand's accuracy: its top degree is what the
    truncated operand gives, not the true value."""
    def keeping(self, *args):
        return derivative(self.with_accuracy(self.accuracy + 1), *args)
    return keeping


@pytest.mark.parametrize("n,K,M", [(2, 10, 7), (3, 7, 4), (4, 5, 2)])
def test_forward_levels_are_trusted_exactly_to_K_minus_1_plus_d(
        monkeypatch, n, K, M):
    """Tightness: the level of degree d matches the truth to K - 1 + d and
    misses it one degree above.

    The truth is the run on the chart of K + 1, trusted one degree further.
    The degree above comes from a run on that chart with the inputs trusted
    to K, as on the chart of K, but with every derivative, in x or in xi,
    keeping its operand's accuracy: the degrees it adds are exactly the
    ones the accounting drops.  The principal level is trusted to K, the
    whole chart, and has no degree above.
    """
    scene = random_scene(5, dimension=n, truncation_order=K, order=M)
    doc = scene_to_json(scene)
    doc["truncation_order"] = K + 1
    big = scene_from_json(doc)
    truth = dtn_symbols(build_context(big.metric, big.lame, big.context), M)
    stated = dtn_symbols(build_context(scene.metric, scene.lame,
                                       scene.context), M)
    spatial = big.context.spatial
    metric = MetricJet(spatial, [[e.with_accuracy(K) for e in row] for row in
                                 (big.metric.tangential_matrix()[a]
                                  for a in range(n - 1))])
    lame = LameJet(big.lame.lam.with_accuracy(K), big.lame.mu.with_accuracy(K))
    from elastic_dtn import jets

    for name in ("partial", "dxi"):
        monkeypatch.setattr(jets._JetArray, name,
                            _keep_a_degree(getattr(jets._JetArray, name)))
    loose = dtn_symbols(build_context(metric, lame, big.context), M)
    sizes = big.context.sizes
    for degree, level in stated.levels.items():
        accuracy = K - 1 + degree
        true = truth.level(degree).coeffs
        scale = np.abs(true).max()
        assert level.accuracy == accuracy
        assert np.abs(level.coeffs - true[..., :sizes[accuracy]]).max() \
            <= 1e-12 * scale, degree
        if degree == 1:
            continue
        above = slice(sizes[accuracy], sizes[accuracy + 1])
        assert np.abs(loose.level(degree).coeffs[..., above]
                      - true[..., above]).max() > 1e-6 * scale, degree


@pytest.mark.parametrize("n,K,M", [(2, 10, 7), (3, 7, 4), (4, 5, 2)])
def test_level_of_degree_d_is_trusted_to_K_minus_1_plus_d(n, K, M):
    """The recursion never runs out before depth K - 1, nor p before M."""
    ctx, _ = random_context(1, dimension=n, K=K)
    q = q_levels(ctx, K - 1)
    p = dtn_symbols(ctx, M)
    assert (q.depth, p.depth) == (K - 1, M)
    for levels in (q, p):
        assert {d: level.accuracy for d, level in levels.levels.items()} == {
            d: K - 1 + d for d in levels.levels}
    with pytest.raises(AccuracyExhausted):
        q_levels(ctx, K)


def _entrywise_connection_blocks(scene, fac):
    """Gamma, its traces, the raised gradients of lambda and mu, b0, c0 and
    c1 written entry by entry, each sum from a zero jet in its formula's
    order: the reference for the array formulas."""
    g = assemble_full_metric(scene.metric)
    ginv = mat_inverse(g)
    spatial, chart = g.context, fac.chart
    n = spatial.dimension
    nn = n - 1
    lam, mu = scene.lame.lam, scene.lame.mu
    inv_mu, inv_l2m = scene.lame.inv_mu, scene.lame.inv_l2m
    xi_down, xi_up = fac.xi_down, fac.xi_up

    dg = [[[g[k, m].dx(l) for l in range(n)] for m in range(n)] for k in range(n)]
    lower = {}
    for j in range(n):
        for k in range(n):
            for l in range(k + 1):
                acc = Jet.zero(spatial)
                for m in range(n):
                    acc = acc + ginv[j, m] * (dg[k][m][l] + dg[l][m][k]
                                              - dg[k][l][m])
                lower[j, k, l] = acc * 0.5
    gamma = {(j, k, l): lower[j, max(k, l), min(k, l)]
             for j in range(n) for k in range(n) for l in range(n)}
    trace = []
    for b in range(n):
        acc = Jet.zero(spatial)
        for c in range(nn):
            acc = acc + gamma[c, c, b]
        trace.append(acc)

    def raised(f):
        grad = []
        for a in range(nn):
            acc = Jet.zero(spatial)
            for b in range(nn):
                acc = acc + ginv[a, b] * f.dx(b)
            grad.append(acc)
        return grad

    grad_lam, grad_mu = raised(lam), raised(mu)

    rows = []
    for a in range(nn):
        row = [2 * gamma[a, b, nn] for b in range(nn)]
        row[a] = row[a] + trace[nn] + inv_mu * mu.dn()
        rows.append(row + [inv_mu * grad_lam[a]])
    rows.append([(lam + mu) * inv_l2m * trace[a] + inv_l2m * mu.dx(a)
                 for a in range(nn)]
                + [trace[nn] + inv_l2m * (lam + 2 * mu).dn()])
    b0 = JetMatrix(spatial, rows)

    def contracted(j, k):
        acc = Jet.zero(spatial)
        for m in range(n):
            for l in range(n):
                acc = acc + ginv[m, l] * gamma[j, m, l].dx(k)
        return acc

    s_ratio = (lam + mu) * inv_mu

    def c0_entry(a, b):
        if a == nn:
            return (lam + mu) * inv_l2m * trace[b].dn() \
                + mu * inv_l2m * contracted(nn, b) \
                + inv_l2m * lam.dn() * trace[b]
        out = contracted(a, b)
        for c in range(nn):
            out = out + s_ratio * ginv[a, c] * trace[b].dx(c)
            out = out - inv_mu * mu.dx(c) * ginv[a, c].dx(b)
        return out + inv_mu * grad_lam[a] * trace[b]

    c0 = JetMatrix(spatial, [[c0_entry(a, b) for b in range(n)] for a in range(n)])

    ratio = 1j * (lam + mu) * inv_mu
    scalar = Jet.zero(chart)
    for a in range(nn):
        scalar = scalar + xi_up[a] * trace[a] + xi_up[a].dx(a)
    xi_grad_mu = Jet.zero(chart)
    for a in range(nn):
        xi_grad_mu = xi_grad_mu + xi_down[a] * grad_mu[a]

    def c1_entry(a, b):
        if a == nn and b == nn:
            return 1j * mu * inv_l2m * scalar + 1j * inv_l2m * xi_grad_mu
        if a == nn:
            entry = Jet.zero(chart)
            for c in range(nn):
                entry = entry + 2j * mu * inv_l2m * xi_up[c] * gamma[nn, c, b]
            return entry + 1j * inv_l2m * lam.dn() * xi_down[b]
        if b == nn:
            entry = ratio * trace[nn] * xi_up[a]
            for c in range(nn):
                entry = entry + 2j * xi_up[c] * gamma[a, c, nn]
            return entry + 1j * inv_mu * mu.dn() * xi_up[a]
        entry = ratio * xi_up[a] * trace[b]
        for c in range(nn):
            entry = entry + 2j * xi_up[c] * gamma[a, c, b]
        entry = entry + 1j * inv_mu * (xi_down[b] * grad_lam[a]
                                       + xi_up[a] * mu.dx(b))
        if a == b:
            entry = entry + 1j * scalar + 1j * inv_mu * xi_grad_mu
        return entry

    c1 = JetMatrix(chart, [[c1_entry(a, b) for b in range(n)] for a in range(n)])
    return {"gamma": gamma, "trace": trace, "grad_lam": grad_lam,
            "grad_mu": grad_mu, "b0": b0, "c0": c0, "c1": c1}


def _same_bits(got, expected):
    """Equal accuracy and degree, and equal coefficient bits once every
    zero is +0.0."""
    return (got.accuracy == expected.accuracy
            and got.degree == expected.degree
            and (got.coeffs + 0.0).tobytes() == (expected.coeffs + 0.0).tobytes())


@pytest.mark.parametrize("n,K,seed", [(2, 6, 1), (3, 5, 2), (4, 4, 3)])
def test_connection_blocks_match_entrywise_reference(n, K, seed):
    ctx, scene = random_context(seed, dimension=n, K=K)
    reference = _entrywise_connection_blocks(scene, ctx)
    geo = ctx.geo
    for (j, k, l), expected in reference["gamma"].items():
        assert _same_bits(geo.gamma[j, k, l], expected), (j, k, l)
    for b, expected in enumerate(reference["trace"]):
        assert _same_bits(geo.trace[b], expected), b
    for f, name in ((scene.lame.lam, "grad_lam"), (scene.lame.mu, "grad_mu")):
        grad = geo.raised_gradient(f)
        for a, expected in enumerate(reference[name]):
            assert _same_bits(grad[a], expected), (name, a)
    for name in ("b0", "c0", "c1"):
        assert _same_bits(getattr(ctx, name), reference[name]), name
