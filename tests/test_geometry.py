import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix
from elastic_dtn.geometry import (
    LameJet,
    MetricJet,
    _check_vector,
    apply_decomposition,
    assemble_full_metric,
    lame_apply,
    leading_coefficient_inverse,
    prepare,
    ricci,
)
from elastic_dtn.scenes import random_scene, random_vector_field

from oracles import evaluate, lift, poly_eval, poly_partial


def euclidean_setup(n=2, K=5, xi0=None):
    ctx = JetContext(n, K, xi0 or (1.0,) * (n - 1))
    return ctx, MetricJet(ctx, JetMatrix.identity(ctx, n - 1))


def metric_one_plus_xn(K=5):
    ctx = JetContext(2, K, (1.0,))
    g11 = 1 + Jet.variable(ctx, 1)
    return ctx, MetricJet(ctx, [[g11]])


def metric_exp_2xn(K=6):
    import math

    ctx = JetContext(2, K, (1.0,))
    coeffs = {(0, d): 2.0 ** d / math.factorial(d) for d in range(K + 1)}
    return ctx, MetricJet(ctx, [[Jet.from_coefficients(ctx, coeffs)]])


def test_assemble_full_metric_trivial():
    ctx, m = euclidean_setup()
    full = assemble_full_metric(m)
    assert full.allclose(JetMatrix.identity(ctx, 2))

    ctx3 = JetContext(3, 5, (1.0, 1.0))
    xn = Jet.variable(ctx3, 2)
    m3 = MetricJet(ctx3, [[1 + xn, Jet.zero(ctx3)],
                          [Jet.zero(ctx3), Jet.constant(ctx3, 2.0)]])
    full3 = assemble_full_metric(m3)
    assert full3[0, 0].allclose(1 + xn)
    assert full3[1, 1].allclose(2.0)
    assert full3[2, 2].allclose(1.0)
    assert full3[0, 2].allclose(0.0) and full3[2, 1].allclose(0.0)
    # disassembly round-trip
    block = full3[:2, :2]
    assert block[0, 0].allclose(m3.tangential_matrix()[0, 0])
    assert block[1, 1].allclose(m3.tangential_matrix()[1, 1])


def test_christoffel_euclidean_vanishes():
    ctx, m = euclidean_setup()
    geo = prepare(m)
    for j in range(2):
        for k in range(2):
            for l in range(2):
                assert geo.gamma[j, k, l].allclose(0.0)


def test_christoffel_hand_values():
    ctx, m = metric_one_plus_xn()
    geo = prepare(m)
    # Gamma^1_{1n} = (1/2) (1+x_n)^{-1}
    assert abs(geo.gamma[0, 0, 1].constant_term - 0.5) < 1e-13
    ctx2, m2 = metric_exp_2xn()
    geo2 = prepare(m2)
    # Gamma^n_{11} = -(1/2) d_n g_11 -> -1 at the base point
    assert abs(geo2.gamma[1, 0, 0].constant_term - (-1.0)) < 1e-12


def test_christoffel_lower_symmetry_random():
    # g is exactly symmetric, so Gamma is, bit for bit
    scene = random_scene(3, dimension=3, truncation_order=5)
    geo = prepare(scene.metric)
    n = 3
    for j in range(n):
        for k in range(n):
            for l in range(k):
                assert np.array_equal(geo.gamma[j, k, l].coeffs,
                                      geo.gamma[j, l, k].coeffs)


def test_ricci_flat_and_hyperbolic():
    ctx, m = euclidean_setup()
    assert ricci(prepare(m).gamma).allclose(0.0)
    ctx2, m2 = metric_exp_2xn(K=6)
    ric = ricci(prepare(m2).gamma)
    assert abs(ric[1, 1].constant_term - (-1.0)) < 1e-10


def test_ricci_symmetry_random():
    for seed in (0, 1):
        scene = random_scene(seed, dimension=3, truncation_order=5)
        ric = ricci(prepare(scene.metric).gamma)
        for k in range(3):
            for l in range(k):
                assert ric[k, l].allclose(ric[l, k], tol=1e-10)


def _metric_polys(scene):
    """Exponent-dict polynomials for the full metric, from the jets."""
    n = scene.dimension
    polys = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            if j < n - 1 and k < n - 1:
                src = scene.metric.tangential_matrix()[j, k]
                polys[j][k] = {tuple(e): v.real for e, v in src.coefficients().items()}
            elif j == k:
                polys[j][k] = {(0,) * scene.context.nvars: 1.0}
            else:
                polys[j][k] = {}
    return polys


def _gamma_exact(polys, n, nvars, point):
    """Christoffel values from exact polynomial derivatives at a point."""
    p = tuple(point) + (0.0,) * (nvars - n)
    g = np.array([[poly_eval(polys[j][k], p) for k in range(n)] for j in range(n)])
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n))
    for j in range(n):
        for k in range(n):
            for l in range(n):
                dg[j][k][l] = poly_eval(poly_partial(polys[j][k], l), p)
    gamma = np.empty((n, n, n))
    for j in range(n):
        for k in range(n):
            for l in range(n):
                gamma[j][k][l] = 0.5 * sum(
                    ginv[j][m] * (dg[k][m][l] + dg[l][m][k] - dg[k][l][m])
                    for m in range(n))
    return gamma


def test_christoffel_ricci_finite_difference_oracle():
    for dim, seed in ((2, 12), (3, 13)):
        _finite_difference_check(random_scene(seed, dimension=dim,
                                              truncation_order=6))


def _finite_difference_check(scene):
    n = scene.dimension
    nvars = scene.context.nvars
    polys = _metric_polys(scene)
    geo = prepare(scene.metric)
    ric = ricci(geo.gamma)
    rng = np.random.default_rng(99)
    h = 1e-4
    for _ in range(10):
        p = rng.uniform(-0.05, 0.05, size=n)
        # metric finite differences -> Christoffel
        g_at = lambda q: np.array(
            [[poly_eval(polys[j][k], tuple(q) + (0.0,) * (nvars - n))
              for k in range(n)] for j in range(n)])
        ginv = np.linalg.inv(g_at(p))
        dg = np.empty((n, n, n))
        for l in range(n):
            e = np.zeros(n)
            e[l] = h
            dg[:, :, l] = (g_at(p + e) - g_at(p - e)) / (2 * h)
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    fd = 0.5 * sum(ginv[j][m] * (dg[k][m][l] + dg[l][m][k]
                                                 - dg[k][l][m]) for m in range(n))
                    jet_val = evaluate(geo.gamma[j, k, l], x=p).real
                    assert abs(fd - jet_val) <= 1e-5 * max(1.0, abs(fd))
        # exact-derivative Christoffel function, finite-differenced -> Ricci
        dgamma = np.empty((n, n, n, n))
        for l in range(n):
            e = np.zeros(n)
            e[l] = h
            dgamma[:, :, :, l] = (_gamma_exact(polys, n, nvars, p + e)
                                  - _gamma_exact(polys, n, nvars, p - e)) / (2 * h)
        gam = _gamma_exact(polys, n, nvars, p)
        for k in range(n):
            for l in range(n):
                fd = sum(dgamma[j][k][l][j] - dgamma[j][j][l][k] for j in range(n))
                fd += sum(gam[j][j][m] * gam[m][k][l] - gam[j][k][m] * gam[m][j][l]
                          for j in range(n) for m in range(n))
                jet_val = evaluate(ric[k, l], x=p).real
                assert abs(fd - jet_val) <= 1e-5 * max(1.0, abs(fd))


def test_lame_apply_hand_value():
    ctx, m = euclidean_setup(K=4)
    lame = LameJet.constant(ctx, 1.5, 0.75)
    x1 = Jet.variable(ctx, 0)
    u = JetMatrix.column(ctx, [x1 * x1, Jet.zero(ctx)])
    result = lame_apply(u, m, lame)
    lam, mu = 1.5, 0.75
    assert abs(result[0, 0].constant_term - 2 * (lam + 2 * mu)) < 1e-12
    assert abs(result[1, 0].constant_term) < 1e-13


def test_lame_apply_constant_field_flat():
    ctx, m = euclidean_setup(K=4)
    lame = LameJet.constant(ctx, 1.0, 1.0)
    u = JetMatrix.column(ctx, [Jet.constant(ctx, 2.0), Jet.constant(ctx, -1.0)])
    assert lame_apply(u, m, lame).max_abs() < 1e-13


def test_lame_apply_linearity():
    scene = random_scene(5, dimension=2, truncation_order=5)
    rng = np.random.default_rng(6)
    u = random_vector_field(scene.context, rng)
    v = random_vector_field(scene.context, rng)
    lu = lame_apply(u, scene.metric, scene.lame)
    lv = lame_apply(v, scene.metric, scene.lame)
    luv = lame_apply(u + v, scene.metric, scene.lame)
    assert luv.allclose(lu + lv, tol=1e-11)


def test_apply_decomposition_zero_field():
    ctx, m = euclidean_setup()
    lame = LameJet.constant(ctx, 1.0, 1.0)
    u = JetMatrix.column(ctx, [Jet.zero(ctx), Jet.zero(ctx)])
    assert apply_decomposition(u, m, lame).max_abs() < 1e-15


def _identity_residual(scene, rng):
    u = random_vector_field(scene.context, rng)
    lhs = apply_decomposition(u, scene.metric, scene.lame)
    ainv = leading_coefficient_inverse(scene.lame, scene.context)
    rhs = ainv @ lame_apply(u, scene.metric, scene.lame)
    return (lhs - rhs).max_abs()


def test_operator_identity_euclidean_with_variable_coefficients():
    from elastic_dtn.scenes import SceneConfig

    ctx = JetContext(2, 5, (1.0,))
    m = MetricJet(ctx, JetMatrix.identity(ctx, 1))
    x1, xn = Jet.variable(ctx, 0), Jet.variable(ctx, 1)
    lame = LameJet(1.0 + 0.2 * x1 - 0.1 * xn + Jet.zero(ctx),
                   1.0 + 0.1 * x1 * xn + Jet.zero(ctx))
    cfg = SceneConfig(m, lame, ctx)
    rng = np.random.default_rng(8)
    assert _identity_residual(cfg, rng) < 1e-11


def test_operator_identity_random_scenes():
    rng = np.random.default_rng(2024)
    for n in (2, 3):
        for seed in range(4):
            scene = random_scene(100 + seed, dimension=n, truncation_order=5)
            assert _identity_residual(scene, rng) < 1e-9


def test_boundary_normal_gamma_identities():
    for seed in (0, 1, 2):
        scene = random_scene(seed, dimension=3, truncation_order=5)
        ctx = scene.context
        n = ctx.dimension
        geo = prepare(scene.metric)
        ginv_t = geo.ginv[:n - 1, :n - 1]
        xi = [Jet.xi_component(ctx, a) for a in range(n - 1)]
        xi_up = [sum((ginv_t[a, b] * xi[b] for b in range(1, n - 1)),
                     ginv_t[a, 0] * xi[0]) for a in range(n - 1)]
        norm_sq = sum((xi_up[a] * xi[a] for a in range(1, n - 1)),
                      xi_up[0] * xi[0])
        dn_norm_sq = norm_sq.dn()

        first = Jet.zero(ctx)
        second = Jet.zero(ctx)
        for b in range(n - 1):
            for c in range(n - 1):
                first = first + geo.gamma[b, c, n - 1] * xi_up[c] * xi[b]
                second = second + geo.gamma[n - 1, b, c] * xi_up[c] * xi_up[b]
        assert (first + 0.5 * dn_norm_sq).max_abs() < 1e-10
        assert (second - 0.5 * dn_norm_sq).max_abs() < 1e-10

        trace = Jet.zero(ctx)
        lhs = Jet.zero(ctx)
        rhs = Jet.zero(ctx)
        g_t = geo.g[:n - 1, :n - 1]
        for a in range(n - 1):
            trace = trace + geo.gamma[a, n - 1, a]
            for b in range(n - 1):
                lhs = lhs + ginv_t[a, b] * g_t[a, b].dn()
                rhs = rhs + g_t[a, b] * ginv_t[a, b].dn()
        assert (trace - 0.5 * lhs).max_abs() < 1e-10
        assert (trace + 0.5 * rhs).max_abs() < 1e-10


def test_vector_field_validation():
    ctx = JetContext(2, 4, (1.0,))
    with pytest.raises(ValueError):
        _check_vector(JetMatrix.column(ctx, [Jet.zero(ctx)]))  # wrong arity
    with pytest.raises(ValueError):
        _check_vector(JetMatrix.zeros(ctx, 2, 2))  # not a column


def test_metric_validation():
    ctx = JetContext(2, 4, (1.0,))
    with pytest.raises(ValueError):
        MetricJet(ctx, [[Jet.constant(ctx, -1.0)]])  # not positive definite
    with pytest.raises(ValueError):
        MetricJet(ctx, [[Jet.constant(ctx, 1.0j)]])  # not real
    with pytest.raises(ValueError, match="cotangent"):
        MetricJet(ctx, [[Jet.xi_component(ctx, 0)]])  # homogeneous of degree 1
    ctx3 = JetContext(3, 3, (1.0, 1.0))
    one = Jet.constant(ctx3, 1.0)
    zero = Jet.zero(ctx3)
    with pytest.raises(ValueError, match="cotangent"):
        t0 = Jet.variable(ctx3, ctx3.xi_index(0))
        MetricJet(ctx3, [[one + t0, zero], [zero, one]])
    one, big = Jet.constant(ctx3, 1.0), Jet.constant(ctx3, 1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="positive definite"):
        MetricJet(ctx3, [[one, big], [big, one]])  # the mean overflows


def test_metric_symmetrizes_only_off_diagonal_pairs():
    ctx = JetContext(4, 3, (1.0, 1.0, 1.0))
    x1 = Jet.variable(ctx, 0)
    one, eps = Jet.constant(ctx, 1.0), Jet.constant(ctx, 1e-13)
    zero = Jet.zero(ctx)
    rows = [[one + 0.1 * x1, 0.2 * x1, zero],
            [0.2 * x1 + eps, one, zero],
            [zero, zero, one]]
    block = lift(MetricJet(ctx, rows).tangential_matrix(), ctx)
    mean = (rows[0][1] + rows[1][0]) * 0.5
    assert np.array_equal(block[0, 1].coeffs, mean.coeffs)
    assert np.array_equal(block[1, 0].coeffs, mean.coeffs)
    assert np.array_equal(block[0, 0].coeffs, rows[0][0].coeffs)
    # every pair is checked before any is averaged; the first one fails
    rows[2][1] = rows[1][2] + 1e-3
    rows[2][0] = rows[0][2] + 1e-3
    with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
        MetricJet(ctx, rows)


def test_lame_validation():
    ctx = JetContext(2, 4, (1.0,))
    with pytest.raises(ValueError):
        LameJet.constant(ctx, 0.0, -1.0)
    with pytest.raises(ValueError):
        LameJet.constant(ctx, -2.0, 1.0)  # lambda + mu < 0
    LameJet.constant(ctx, -1.0, 1.0)  # boundary case admitted
