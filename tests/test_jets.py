import math
import threading

import numpy as np
import pytest

from elastic_dtn import (
    AccuracyExhausted,
    ContextMismatch,
    Jet,
    JetContext,
    JetMatrix,
    NotInvertible,
    mat_inverse,
    reciprocal,
    sqrt,
)

from oracles import (
    assert_poly_close,
    jet_to_poly,
    poly_mul,
    poly_partial,
    poly_reciprocal,
    poly_sqrt,
)


def make_context(n=2, K=5, xi0=(1.0,)):
    return JetContext(n, K, xi0)


def random_jet(ctx, rng, degree=3, scale=0.5, complex_coeffs=True):
    coeffs = {}
    for m in ctx.monomials:
        if sum(m) > degree:
            continue
        v = rng.uniform(-scale, scale)
        if complex_coeffs:
            v = v + 1j * rng.uniform(-scale, scale)
        coeffs[m] = v
    return Jet.from_coefficients(ctx, coeffs)


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext(1, 5, ())
    with pytest.raises(ValueError):
        JetContext(2, 1, (1.0,))
    with pytest.raises(ValueError):
        JetContext(2, 5, (0.0,))
    with pytest.raises(ValueError):
        JetContext(3, 5, (1.0,))  # wrong covector length


def test_context_mismatch_checked():
    a = Jet.constant(make_context(), 1.0)
    b = Jet.constant(make_context(K=6), 1.0)
    with pytest.raises(ContextMismatch):
        a * b


def test_mul_polynomial_identity():
    ctx = make_context()
    xn = Jet.x_var(ctx, 1)
    prod = (1 + xn) * (1 + xn)
    expected = Jet.from_coefficients(
        ctx, {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 0): 1})
    assert prod.allclose(expected)


def test_mul_identity_element():
    ctx = make_context()
    rng = np.random.default_rng(0)
    a = random_jet(ctx, rng)
    assert (a * Jet.constant(ctx, 1.0)).allclose(a)


def test_mul_complex_offset_variables():
    # (x1 + i*xih1)(x1 - i*xih1) = x1^2 + xih1^2 with xih the offset variable
    ctx = make_context()
    x1 = Jet.x_var(ctx, 0)
    xi = Jet.xi_offset(ctx, 0)
    prod = (x1 + 1j * xi) * (x1 - 1j * xi)
    expected = Jet.from_coefficients(ctx, {(2, 0, 0): 1, (0, 0, 2): 1})
    assert prod.allclose(expected)


def test_ops_match_bruteforce_oracle():
    ctx = make_context(n=2, K=5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_jet(ctx, rng, degree=3)
        b = random_jet(ctx, rng, degree=3)
        pa, pb = jet_to_poly(a), jet_to_poly(b)
        K = ctx.truncation_order
        assert_poly_close(jet_to_poly(a * b), poly_mul(pa, pb, K), K)
        assert_poly_close(jet_to_poly(a + b),
                          {k: pa.get(k, 0) + pb.get(k, 0) for k in set(pa) | set(pb)},
                          K)
        for var in range(ctx.nvars):
            assert_poly_close(jet_to_poly(a.partial(var)),
                              poly_partial(pa, var), K - 1)


def _full_product(a, b):
    """Reference kernel: every pair of the table, all degrees up to K."""
    left, right, starts = a.context.mul_table()
    return np.add.reduceat(a.coeffs[left] * b.coeffs[right], starts)


@pytest.mark.parametrize("n,K,xi0", [(2, 6, (1.0,)), (3, 5, (0.7, -1.1))])
def test_truncated_product_matches_full_kernel(n, K, xi0):
    ctx = make_context(n=n, K=K, xi0=xi0)
    rng = np.random.default_rng(n)
    for acc in (0, 1, K - 3, K):
        trusted = ctx.degrees <= acc
        general = random_jet(ctx, rng, degree=K)
        other = random_jet(ctx, rng, degree=K)
        # no coefficient at degrees 1..acc, arbitrary ones above acc
        flat = random_jet(ctx, rng, degree=K).coeffs * ~trusted
        flat[0] = 1.3 - 0.4j
        const = Jet(ctx, flat, K)
        # constant below acc except for the last trusted monomial
        last = flat.copy()
        last[int(trusted.sum()) - 1] += 0.8j
        almost = Jet(ctx, last, K)
        for a, b in ((general, other), (const, general), (general, const),
                     (almost, general), (general, almost)):
            for prod in (a.with_accuracy(acc) * b, a * b.with_accuracy(acc)):
                assert prod.accuracy == acc
                assert np.array_equal(prod.coeffs[trusted],
                                      _full_product(a, b)[trusted])
                assert not prod.coeffs[~trusted].any()


def test_products_in_threads_match_serial_products():
    # contexts of one shape share product plans; each thread has its own
    # gather buffers
    ctx = make_context(n=3, K=5, xi0=(0.7, -1.1))
    rng = np.random.default_rng(11)
    pairs = [(random_jet(ctx, rng, degree=5), random_jet(ctx, rng, degree=5))
             for _ in range(8)]
    expected = [(a * b).coeffs for a, b in pairs]
    results = {}

    def work(tag):
        results[tag] = [[(a * b).coeffs for a, b in pairs] for _ in range(50)]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for runs in results.values():
        for run in runs:
            assert all(np.array_equal(c, e) for c, e in zip(run, expected))


def test_inverses_hold_zeros_above_accuracy():
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(4)
    acc = 3
    above = ctx.degrees > acc
    a = (random_jet(ctx, rng, degree=6, complex_coeffs=False) + 2.0).with_accuracy(acc)
    assert a.coeffs[above].any()
    for out in (reciprocal(a), sqrt(a)):
        assert out.accuracy == acc and not out.coeffs[above].any()
    m = JetMatrix(ctx, [[a, 0.3 * a], [0.2 * a, a + 1.0]])
    for row in mat_inverse(m).entries:
        for e in row:
            assert e.accuracy == acc and not e.coeffs[above].any()


def test_reciprocal_against_oracle_and_roundtrip():
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_jet(ctx, rng, degree=3) + (2.0 + 1.0j)
        inv = reciprocal(a)
        assert (a * inv).allclose(1.0)
        assert_poly_close(jet_to_poly(inv),
                          poly_reciprocal(jet_to_poly(a), ctx.nvars,
                                          ctx.truncation_order),
                          ctx.truncation_order, tol=1e-12)


def test_reciprocal_geometric_series():
    ctx = make_context(K=5)
    xn = Jet.x_var(ctx, 1)
    inv = reciprocal(1 + xn)
    expected = Jet.from_coefficients(
        ctx, {(0, d, 0): (-1.0) ** d for d in range(6)})
    assert inv.allclose(expected)
    assert reciprocal(Jet.constant(ctx, 1.0)).allclose(1.0)


def test_reciprocal_rejects_vanishing_constant():
    ctx = make_context()
    with pytest.raises(NotInvertible):
        reciprocal(Jet.x_var(ctx, 0))


def test_sqrt_binomial_series_and_roundtrip():
    ctx = make_context(K=6)
    assert sqrt(Jet.constant(ctx, 4.0)).allclose(2.0)
    xn = Jet.x_var(ctx, 1)
    s = sqrt(1 + xn)
    coeffs = {(0, 0, 0): 1.0, (0, 1, 0): 0.5, (0, 2, 0): -0.125}
    for exps, v in coeffs.items():
        assert abs(s.coefficient(exps) - v) < 1e-14
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_jet(ctx, rng, degree=3, complex_coeffs=False) + 1.5
        r = sqrt(a)
        assert (r * r).allclose(a)
        assert_poly_close(jet_to_poly(r),
                          poly_sqrt(jet_to_poly(a), ctx.nvars, ctx.truncation_order),
                          ctx.truncation_order, tol=1e-12)


def test_sqrt_rejects_bad_constant_terms():
    ctx = make_context()
    with pytest.raises(NotInvertible):
        sqrt(Jet.constant(ctx, -1.0))
    with pytest.raises(NotInvertible):
        sqrt(Jet.constant(ctx, 1.0j))


def test_partial_basics():
    ctx = make_context()
    xn = Jet.x_var(ctx, 1)
    assert (xn * xn).dx(1).allclose(2 * xn)
    assert Jet.constant(ctx, 5.0).dx(0).allclose(0.0)
    # d(xi1^2)/dxi1 = 2*xi1 = 2*xi0 + 2*offset because xi1 = xi0 + offset
    xi1 = Jet.xi_component(ctx, 0)
    assert (xi1 * xi1).dxi(0).allclose(2 * xi1)


def test_partial_lowers_accuracy_and_exhausts():
    ctx = make_context(K=2)
    a = Jet.x_var(ctx, 0)
    d1 = a.partial(0)
    assert d1.accuracy == ctx.truncation_order - 1
    d2 = d1.partial(0)
    with pytest.raises(AccuracyExhausted):
        d2.partial(0).partial(0)


def test_partials_commute():
    ctx = make_context(n=3, K=5, xi0=(1.0, -0.5))
    rng = np.random.default_rng(23)
    a = random_jet(ctx, rng, degree=4)
    assert a.dx(0).dx(1).allclose(a.dx(1).dx(0))
    assert a.dx(0).dxi(1).allclose(a.dxi(1).dx(0))


def test_ring_axioms_random():
    ctx = make_context(n=3, K=4, xi0=(0.7, 1.1))
    rng = np.random.default_rng(5)
    a, b, c = (random_jet(ctx, rng) for _ in range(3))
    assert ((a * b) * c).allclose(a * (b * c), tol=1e-13)
    assert (a * (b + c)).allclose(a * b + a * c, tol=1e-13)
    assert (a * b).allclose(b * a, tol=1e-13)


def test_accuracy_minimum_under_binary_ops():
    ctx = make_context()
    rng = np.random.default_rng(1)
    a = random_jet(ctx, rng).with_accuracy(3)
    b = random_jet(ctx, rng)
    assert (a * b).accuracy == 3
    assert (a + b).accuracy == 3
    assert reciprocal(a + 3.0).accuracy == 3


def test_tiny_jet_compares_equal_to_zero():
    ctx = make_context()
    dust = Jet.from_coefficients(ctx, {m: 1e-15 for m in ctx.monomials})
    assert dust.is_zero(tol=1e-12)


def test_finite_difference_matches_partial():
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(17)
    a = random_jet(ctx, rng, degree=4, complex_coeffs=False)
    h = 1e-4
    for var, evec in ((0, np.array([1.0, 0.0])), (1, np.array([0.0, 1.0]))):
        fd = (a.evaluate(x=h * evec) - a.evaluate(x=-h * evec)) / (2 * h)
        exact = a.partial(var).constant_term
        assert abs(fd - exact) < 1e-6
    fd_xi = (a.evaluate(xi_offset=[h]) - a.evaluate(xi_offset=[-h])) / (2 * h)
    assert abs(fd_xi - a.dxi(0).constant_term) < 1e-6


def test_evaluate_matches_direct_polynomial():
    ctx = make_context(n=2, K=4)
    a = Jet.from_coefficients(ctx, {(1, 0, 0): 2.0, (0, 2, 0): 1.0, (0, 0, 1): -3.0})
    val = a.evaluate(x=[0.3, 0.2], xi_offset=[0.1])
    assert abs(val - (2 * 0.3 + 0.2 ** 2 - 3 * 0.1)) < 1e-14


def test_at_boundary_and_substitute_xi():
    ctx = make_context(n=2, K=4)
    xn = Jet.x_var(ctx, 1)
    x1 = Jet.x_var(ctx, 0)
    xi = Jet.xi_offset(ctx, 0)
    a = 1 + x1 * xn + xn * xn + x1 * xi
    restricted = a.at_boundary()
    assert restricted.allclose(1 + x1 * xi)
    subst = a.substitute_xi([0.5])
    assert subst.allclose(1 + x1 * xn + xn * xn + 0.5 * x1)
    assert not subst.depends_on_xi()


def test_matrix_inverse_identity_and_diagonal():
    ctx = make_context(K=5)
    eye = JetMatrix.identity(ctx, 2)
    assert mat_inverse(eye).allclose(eye)
    xn = Jet.x_var(ctx, 1)
    m = JetMatrix.diagonal(ctx, [1 + xn, Jet.constant(ctx, 2.0)])
    inv = mat_inverse(m)
    assert inv[0, 0].allclose(reciprocal(1 + xn))
    assert inv[1, 1].allclose(0.5)
    assert inv[0, 1].is_zero() and inv[1, 0].is_zero()


def test_matrix_inverse_random_roundtrip():
    ctx = make_context(n=3, K=4, xi0=(1.0, 0.0))
    rng = np.random.default_rng(2)
    base = rng.uniform(-0.5, 0.5, size=(3, 3))
    spd = base @ base.T + 2.0 * np.eye(3)
    entries = []
    for i in range(3):
        row = []
        for j in range(3):
            pert = random_jet(ctx, rng, degree=2, scale=0.1, complex_coeffs=False)
            row.append(pert - pert.constant_term + spd[i][j])
        entries.append(row)
    m = JetMatrix(ctx, entries)
    inv = mat_inverse(m)
    assert (m @ inv).allclose(JetMatrix.identity(ctx, 3), tol=1e-10)
    assert (inv @ m).allclose(JetMatrix.identity(ctx, 3), tol=1e-10)


def test_matrix_inverse_rejects_singular():
    ctx = make_context()
    m = JetMatrix.zeros(ctx, 2, 2)
    with pytest.raises(NotInvertible):
        mat_inverse(m)


def test_multiindex_ordering_and_factorial():
    from elastic_dtn import MultiIndex

    a = MultiIndex((1, 0, 0))
    b = MultiIndex((0, 2, 0))
    assert a.degree == 1 and b.degree == 2
    assert a < b  # graded ordering puts lower degree first
    assert MultiIndex((0, 1, 1)) < MultiIndex((1, 0, 1))  # lex within a degree
    assert MultiIndex((3, 2, 0)).factorial() == math.factorial(3) * 2
