import threading

import numpy as np
import pytest

from elastic_dtn import jets
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
    evaluate,
    homogeneous_value,
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


def test_chart_size_budget():
    # a chart of n has 2n - 2 variables: (4, 7), the largest chart in use,
    # needs C(19, 12) = 50,388 pairs and (4, 8) C(20, 12) = 125,970;
    # (4, 9) would need 293,930
    JetContext(4, 7, (1.0, 1.0, 1.0))
    JetContext(4, 8, (1.0, 1.0, 1.0))
    for n, K in ((4, 9), (2, 99), (2, 10**100)):
        with pytest.raises(ValueError, match="product pairs"):
            JetContext(n, K, (1.0,) * (n - 1))
    with pytest.raises(ValueError, match="product pairs"):
        JetContext(10**9, 2, (1.0,))  # rejected before the covector is read


def test_context_mismatch_checked():
    a = Jet.constant(make_context(), 1.0)
    b = Jet.constant(make_context(K=6), 1.0)
    with pytest.raises(ContextMismatch):
        a * b


def test_mul_polynomial_identity():
    ctx = make_context()
    xn = Jet.variable(ctx, 1)
    prod = (1 + xn) * (1 + xn)
    expected = Jet.from_coefficients(ctx, {(0, 0): 1, (0, 1): 2, (0, 2): 1})
    assert prod.allclose(expected)


def test_mul_identity_element():
    ctx = make_context()
    rng = np.random.default_rng(0)
    a = random_jet(ctx, rng)
    assert (a * Jet.constant(ctx, 1.0)).allclose(a)


def test_mul_complex_offset_variables():
    # (x1 + i*t1)(x1 - i*t1) = x1^2 + t1^2 with t1 the hyperplane offset
    ctx = make_context(n=3, xi0=(1.0, 0.5))
    x1 = Jet.variable(ctx, 0)
    xi = Jet.variable(ctx, ctx.xi_index(0))
    prod = (x1 + 1j * xi) * (x1 - 1j * xi)
    expected = Jet.from_coefficients(ctx, {(2, 0, 0, 0): 1, (0, 0, 0, 2): 1})
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
        size = ctx.sizes[acc]
        general = random_jet(ctx, rng, degree=K)
        other = random_jet(ctx, rng, degree=K)
        # no coefficient at degrees 1..acc, arbitrary ones above acc
        flat = random_jet(ctx, rng, degree=K).coeffs * ~trusted
        flat[0] = 1.3 - 0.4j
        const = Jet(ctx, flat, K)
        # constant below acc except for the last trusted monomial
        last = flat.copy()
        last[size - 1] += 0.8j
        almost = Jet(ctx, last, K)
        for a, b in ((general, other), (const, general), (general, const),
                     (almost, general), (general, almost)):
            for prod in (a.with_accuracy(acc) * b, a * b.with_accuracy(acc)):
                assert prod.accuracy == acc and len(prod.coeffs) == size
                assert np.array_equal(prod.coeffs, _full_product(a, b)[:size])


def _matrix_operand(ctx, rng, rows, cols, kind):
    """Full-accuracy entries: dense, all constant, or zero/constant/dense mixed."""
    K = ctx.truncation_order

    def entry(i, j):
        pick = "dense" if kind == "dense" else "const" if kind == "const" \
            else ("zero", "const", "dense")[(i + 2 * j) % 3]
        if pick == "zero":
            return Jet.zero(ctx)
        if pick == "const":
            return Jet.constant(ctx, complex(*rng.uniform(-1, 1, size=2)))
        return random_jet(ctx, rng, degree=K)

    return [[entry(i, j) for j in range(cols)] for i in range(rows)]


def _lowered(ctx, entries, acc):
    """A matrix trusted to ``acc``, built from entries of several accuracies."""
    K = ctx.truncation_order
    return JetMatrix(ctx, [[e.with_accuracy(acc if (i + j) % 2 == 0 else K)
                            for j, e in enumerate(row)]
                           for i, row in enumerate(entries)])


@pytest.mark.parametrize("r,c,s", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 3, 1)])
@pytest.mark.parametrize("kinds", [
    pytest.param(kinds, id="-".join(kinds)) for kinds in (
        ("dense", "dense"), ("mixed", "dense"), ("dense", "mixed"),
        ("const", "mixed"), ("mixed", "const"))])
def test_matrix_products_match_entrywise_reference(r, c, s, kinds):
    # the reference is the entry-by-entry loop over full-table products, k
    # terms added in order, cut to the trusted prefix
    ctx = make_context(n=3, K=5, xi0=(0.7, -1.1))
    K = ctx.truncation_order
    rng = np.random.default_rng(100 * r + s)
    left = _matrix_operand(ctx, rng, r, c, kinds[0])
    right = _matrix_operand(ctx, rng, c, s, kinds[1])
    scale = random_jet(ctx, rng, degree=K) if kinds[1] == "dense" \
        else Jet.constant(ctx, 0.3 - 0.2j)
    for acc in (0, 1, K - 3, K):
        size = ctx.sizes[acc]
        a = _lowered(ctx, left, acc)
        assert a.accuracy == acc and a.coeffs.shape == (r, c, size)
        for prod in (a @ _lowered(ctx, right, K), _lowered(ctx, left, K)
                     @ _lowered(ctx, right, acc)):
            assert prod.accuracy == acc and prod.coeffs.shape == (r, s, size)
            for i in range(r):
                for j in range(s):
                    expected = _full_product(left[i][0], right[0][j])
                    for k in range(1, c):
                        expected = expected + _full_product(left[i][k],
                                                            right[k][j])
                    assert np.array_equal(prod[i, j].coeffs, expected[:size])
        for scaled in (a * scale, _lowered(ctx, left, K) * scale.with_accuracy(acc)):
            assert scaled.accuracy == acc
            for i in range(r):
                for j in range(c):
                    assert np.array_equal(scaled[i, j].coeffs,
                                          _full_product(left[i][j], scale)[:size])


def test_matrix_entries_are_read_only_views():
    ctx = make_context(n=2, K=4)
    rng = np.random.default_rng(9)
    m = JetMatrix(ctx, [[random_jet(ctx, rng), Jet.variable(ctx, 0)],
                        [Jet.constant(ctx, 2.0), random_jet(ctx, rng)]])
    entry = m[0, 1]
    assert np.shares_memory(entry.coeffs, m.coeffs)
    for coeffs in (m.coeffs, entry.coeffs, (m @ m).coeffs, (m * entry).coeffs):
        with pytest.raises(ValueError, match="read-only"):
            coeffs[..., 0] = 1.0
    # a number added to a matrix would have to mean a multiple of the
    # identity, not an entrywise sum, so neither is offered
    for combine in (lambda: m + 1.0, lambda: 1.0 - m):
        with pytest.raises(TypeError):
            combine()


def test_matrix_rows_are_tuples_of_entry_views():
    ctx = make_context(n=2, K=4)
    rng = np.random.default_rng(10)
    m = JetMatrix(ctx, [[random_jet(ctx, rng) for _ in range(3)]
                        for _ in range(2)])
    rows = list(m)  # iteration goes row by row
    assert len(rows) == 2 and all(len(row) == 3 for row in rows)
    for i, row in enumerate(rows):
        assert isinstance(m[i], tuple)
        for j, entry in enumerate(row):
            assert np.shares_memory(entry.coeffs, m.coeffs)
            assert np.array_equal(entry.coeffs, m[i, j].coeffs)
            assert entry.accuracy == m.accuracy
    assert np.array_equal(m.transpose()[2, 1].coeffs, m[1, 2].coeffs)


def test_symmetrized_keeps_the_diagonal_bits():
    ctx = make_context(n=2, K=3)
    rng = np.random.default_rng(12)
    big = Jet.constant(ctx, 1.5e308)  # big + big overflows
    m = JetMatrix(ctx, [[big, random_jet(ctx, rng)],
                        [random_jet(ctx, rng), random_jet(ctx, rng)]])
    sym = m.symmetrized()
    for i in range(2):
        assert np.array_equal(sym[i, i].coeffs, m[i, i].coeffs)
    mean = (m[0, 1] + m[1, 0]) * 0.5
    assert np.array_equal(sym[0, 1].coeffs, mean.coeffs)
    assert np.array_equal(sym[1, 0].coeffs, mean.coeffs)


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
    # the inverses start from full-accuracy constants; they store nothing
    # above the accuracy of their argument
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(4)
    acc = 3
    size = ctx.sizes[acc]
    full = random_jet(ctx, rng, degree=6, complex_coeffs=False) + 2.0
    assert full.coeffs[ctx.degrees > acc].any()
    a = full.with_accuracy(acc)
    assert np.array_equal(a.coeffs, full.coeffs[:size])
    for out in (reciprocal(a), sqrt(a)):
        assert out.accuracy == acc and len(out.coeffs) == size
    m = JetMatrix(ctx, [[a, 0.3 * a], [0.2 * a, a + 1.0]])
    inv = mat_inverse(m)
    for i in range(2):
        for j in range(2):
            assert inv[i, j].accuracy == acc and len(inv[i, j].coeffs) == size


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
    xn = Jet.variable(ctx, 1)
    inv = reciprocal(1 + xn)
    expected = Jet.from_coefficients(
        ctx, {(0, d): (-1.0) ** d for d in range(6)})
    assert inv.allclose(expected)
    assert reciprocal(Jet.constant(ctx, 1.0)).allclose(1.0)


def test_reciprocal_rejects_vanishing_constant():
    ctx = make_context()
    with pytest.raises(NotInvertible):
        reciprocal(Jet.variable(ctx, 0))


def test_sqrt_binomial_series_and_roundtrip():
    ctx = make_context(K=6)
    assert sqrt(Jet.constant(ctx, 4.0)).allclose(2.0)
    xn = Jet.variable(ctx, 1)
    s = sqrt(1 + xn)
    coeffs = {(0, 0): 1.0, (0, 1): 0.5, (0, 2): -0.125}
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
    xn = Jet.variable(ctx, 1)
    assert (xn * xn).dx(1).allclose(2 * xn)
    assert Jet.constant(ctx, 5.0).dx(0).allclose(0.0)
    # d(xi1^2)/dxi1 = 2*xi1 = 2*xi0 + 2*offset because xi1 = xi0 + offset
    xi1 = Jet.xi_component(ctx, 0)
    assert (xi1 * xi1).dxi(0).allclose(2 * xi1)


def test_partial_lowers_accuracy_and_exhausts():
    ctx = make_context(K=2)
    a = Jet.variable(ctx, 0)
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


def test_with_accuracy_drops_or_zero_extends():
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(12)
    a = random_jet(ctx, rng, degree=6)
    assert a.coefficient((0, 3)) != 0
    low = a.with_accuracy(2)
    assert low.accuracy == 2 and len(low.coeffs) == ctx.sizes[2]
    assert np.array_equal(low.coeffs, a.coeffs[:ctx.sizes[2]])
    assert low.coefficient((0, 3)) == 0
    high = low.with_accuracy(5)
    assert high.accuracy == 5 and len(high.coeffs) == ctx.sizes[5]
    assert np.array_equal(high.coeffs[:ctx.sizes[2]], low.coeffs)
    assert not high.coeffs[ctx.sizes[2]:].any()
    assert ctx.sizes[ctx.truncation_order] == len(ctx.monomials)


def test_negative_accuracy_rejected():
    ctx = make_context(n=2, K=6)
    a = Jet.constant(ctx, 1.0)
    for make in (lambda: Jet(ctx, a.coeffs, -1), lambda: a.with_accuracy(-1)):
        with pytest.raises(ValueError, match="accuracy must be >= 0"):
            make()
    with pytest.raises(ValueError, match="needs 6 coefficients"):
        Jet(ctx, a.coeffs[:4], 2)


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
    assert dust.allclose(0.0, 1e-12)


def test_finite_difference_matches_partial():
    ctx = make_context(n=2, K=6)
    rng = np.random.default_rng(17)
    a = random_jet(ctx, rng, degree=4, complex_coeffs=False)
    h = 1e-4
    for var, evec in ((0, np.array([1.0, 0.0])), (1, np.array([0.0, 1.0]))):
        fd = (evaluate(a, x=h * evec) - evaluate(a, x=-h * evec)) / (2 * h)
        exact = a.partial(var).constant_term
        assert abs(fd - exact) < 1e-6
    ctx3 = make_context(n=3, K=6, xi0=(1.0, -0.5))
    b = random_jet(ctx3, rng, degree=4, complex_coeffs=False)
    fd_t = (evaluate(b, xi_offset=[h]) - evaluate(b, xi_offset=[-h])) / (2 * h)
    assert abs(fd_t - b.partial(ctx3.xi_index(0)).constant_term) < 1e-6


@pytest.mark.parametrize("n, xi0", [(2, (0.8,)), (2, (-1.3,)),
                                    (3, (0.7, -1.1)), (3, (0.0, 1.2)),
                                    (4, (0.6, 0.0, -0.9))])
@pytest.mark.parametrize("degree", [-1, 0, 1, 2])
def test_dxi_matches_central_differences_of_the_homogeneous_extension(
        n, xi0, degree):
    """dxi against the jet extended by homogeneity off its hyperplane and
    differenced along each covector component.

    The coefficients stop one degree below the accuracy, so the derivative
    has no term that its accuracy drops, and its value at any point is
    exact.
    """
    K = 5
    ctx = make_context(n=n, K=K, xi0=xi0)
    rng = np.random.default_rng(n * 10 + degree)
    f = random_jet(ctx, rng, degree=K - 1)
    f = Jet(ctx, f.coeffs, K, degree=degree)
    h = 1e-5
    for x, t in (((0.0,) * n, (0.0,) * (n - 2)),
                 (tuple(rng.uniform(-0.3, 0.3, n)),
                  tuple(rng.uniform(-0.3, 0.3, n - 2)))):
        covector = np.array(xi0) + ctx.hyperplane_basis @ np.array(t)
        for a in range(n - 1):
            step = h * np.eye(n - 1)[a]
            fd = (homogeneous_value(f, x, covector + step)
                  - homogeneous_value(f, x, covector - step)) / (2 * h)
            derivative = f.dxi(a)
            assert derivative.degree == degree - 1
            assert derivative.accuracy == K - 1
            assert abs(evaluate(derivative, x=x, xi_offset=t) - fd) < 1e-7, (
                a, x, t)


@pytest.mark.parametrize("xi0", [(1.0,), (-0.4,), (0.8, -1.2), (0.0, 2.0),
                                 (-3.0, 0.0), (0.3, 0.0, -0.5),
                                 (0.0, 0.0, 1.0)])
def test_hyperplane_basis_is_orthonormal_and_fixed_by_the_direction(xi0):
    basis = make_context(n=len(xi0) + 1, xi0=xi0).hyperplane_basis
    assert basis.shape == (len(xi0), len(xi0) - 1)
    assert np.allclose(basis.T @ basis, np.eye(len(xi0) - 1), atol=1e-15)
    assert np.allclose(np.array(xi0) @ basis, 0.0, atol=1e-15)
    for scale in (2.5, 0.1, -1.0):
        scaled = make_context(n=len(xi0) + 1,
                              xi0=tuple(scale * v for v in xi0))
        assert np.array_equal(scaled.hyperplane_basis, basis)


def test_homogeneity_degrees_follow_the_operations():
    ctx = make_context(n=3, K=5, xi0=(0.8, -0.6))
    xi = [Jet.xi_component(ctx, a) for a in range(2)]
    x1 = Jet.variable(ctx, 0)
    assert [e.degree for e in xi] == [1, 1] and x1.degree == 0
    assert (xi[0] * xi[1] * x1).degree == 2
    norm_sq = xi[0] * xi[0] + xi[1] * xi[1]
    assert norm_sq.degree == 2
    assert sqrt(norm_sq).degree == 1 and reciprocal(norm_sq).degree == -2
    assert (xi[0] * reciprocal(xi[1])).degree == 0
    assert norm_sq.dxi(0).degree == 1 and norm_sq.dx(0).degree == 2
    matrix = JetMatrix(ctx, [[xi[0], Jet.zero(ctx)], [Jet.zero(ctx), xi[1]]])
    assert matrix.degree == 1 and mat_inverse(matrix).degree == -1
    assert (matrix @ matrix).degree == 2 and (matrix * xi[0]).degree == 2
    # a zero jet takes any degree; nonzero jets of two degrees do not add
    assert (Jet.zero(ctx) + xi[0]).degree == 1
    assert (xi[0] - xi[0] + 2.0).degree == 0
    for call in (lambda: xi[0] + x1, lambda: xi[0] + 1.0,
                 lambda: JetMatrix(ctx, [[xi[0], x1]]),
                 lambda: sqrt(xi[0] * norm_sq),
                 lambda: (xi[0] * xi[0]).spatial_part()):
        with pytest.raises(ValueError):
            call()
    assert not xi[0].allclose(xi[0] * reciprocal(xi[0]) * xi[0].constant_term)
    assert xi[0].depends_on_xi() and not x1.depends_on_xi()
    # for n = 2 the hyperplane is one point: a covector component is the
    # constant xi0 of degree 1, and it still depends on xi
    narrow = make_context(n=2, xi0=(-0.7,))
    xi_narrow = Jet.xi_component(narrow, 0)
    assert xi_narrow.coefficients() == {(0, 0): -0.7}
    assert xi_narrow.degree == 1 and xi_narrow.depends_on_xi()
    assert (xi_narrow * xi_narrow).dxi(0).allclose(2 * xi_narrow)


def test_evaluate_matches_direct_polynomial():
    ctx = make_context(n=3, K=4, xi0=(1.0, 0.5))
    a = Jet.from_coefficients(ctx, {(1, 0, 0, 0): 2.0, (0, 2, 0, 0): 1.0,
                                    (0, 0, 0, 1): -3.0})
    val = evaluate(a, x=[0.3, 0.2], xi_offset=[0.1])
    assert abs(val - (2 * 0.3 + 0.2 ** 2 - 3 * 0.1)) < 1e-14


def test_at_boundary_and_substitute_xi():
    ctx = make_context(n=3, K=4, xi0=(1.0, 0.5))
    xn = Jet.variable(ctx, 2)
    x1 = Jet.variable(ctx, 0)
    xi = Jet.variable(ctx, ctx.xi_index(0))
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
    xn = Jet.variable(ctx, 1)
    m = JetMatrix.diagonal(ctx, [1 + xn, Jet.constant(ctx, 2.0)])
    inv = mat_inverse(m)
    assert inv[0, 0].allclose(reciprocal(1 + xn))
    assert inv[1, 1].allclose(0.5)
    assert inv[0, 1].allclose(0.0) and inv[1, 0].allclose(0.0)


def test_constant_matrices_have_the_bits_of_their_entry_lists():
    # whole-array builds against the entry-by-entry constructor, every
    # signed zero included; the diagonal lifts a spatial jet as an entry does
    ctx = make_context(n=3, K=3, xi0=(1.0, -0.5))
    zero, one = Jet.zero(ctx), Jet.constant(ctx, 1.0)
    spatial = Jet.variable(ctx.spatial, 2) * -1.5 - 2.0
    cases = [
        (JetMatrix.zeros(ctx, 2, 3), [[zero] * 3] * 2),
        (JetMatrix.identity(ctx, 3),
         [[one if i == j else zero for j in range(3)] for i in range(3)]),
        (JetMatrix.diagonal(ctx, [spatial, -3.0]),
         [[spatial, zero], [zero, Jet.constant(ctx, -3.0)]]),
    ]
    for built, entries in cases:
        expected = JetMatrix(ctx, entries)
        assert built.context is ctx
        assert (built.accuracy, built.degree) == (expected.accuracy,
                                                  expected.degree)
        assert built.coeffs.tobytes() == expected.coeffs.tobytes()
    # the start matrix of mat_inverse, at a lowered accuracy
    inv0 = np.array([[1.0, -0.0], [0.25j, -2.0 + 0.5j]])
    start = JetMatrix(ctx, [[Jet.constant(ctx, v, 2) for v in row]
                            for row in inv0])
    built = JetMatrix._constant(ctx, inv0, 2)
    assert built.accuracy == start.accuracy == 2
    assert built.coeffs.tobytes() == start.coeffs.tobytes()


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


def test_basis_is_graded_lex_with_tuple_keys():
    ctx = make_context(n=3, K=2, xi0=(1.0, 0.0)).spatial
    assert ctx.monomials == (
        (0, 0, 0),
        (0, 0, 1), (0, 1, 0), (1, 0, 0),
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    assert ctx.sizes == (1, 4, 10)
    assert ctx.degrees.tolist() == [sum(m) for m in ctx.monomials]
    jet = Jet.from_coefficients(ctx, {(1, 1, 0): 2.0, (0, 0, 1): 3.0})
    assert list(jet.coefficients()) == [(0, 0, 1), (1, 1, 0)]
    assert all(type(m) is tuple for m in jet.coefficients())


def _loop_mul_table(ctx):
    """The product table as a double loop over the basis: the oracle."""
    K, idx, mons = ctx.truncation_order, ctx._index, ctx.monomials
    degs = [sum(m) for m in mons]
    left, right, target = [], [], []
    for i, mi in enumerate(mons):
        cap = K - degs[i]
        for j, mj in enumerate(mons):
            if degs[j] > cap:
                continue
            left.append(i)
            right.append(j)
            target.append(idx[tuple(a + b for a, b in zip(mi, mj))])
    left = np.array(left, dtype=np.int64)
    right = np.array(right, dtype=np.int64)
    target = np.array(target, dtype=np.int64)
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(len(mons)))
    return left[order], right[order], starts


def _loop_diff_table(ctx, var):
    src, dst, fac = [], [], []
    for i, m in enumerate(ctx.monomials):
        if m[var]:
            lowered = list(m)
            lowered[var] -= 1
            src.append(i)
            dst.append(ctx._index[tuple(lowered)])
            fac.append(float(m[var]))
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(fac, dtype=np.float64))


def _loop_basis(nvars, K):
    """Graded-lex monomials by recursion over the variables: the oracle."""
    by_degree = [[] for _ in range(K + 1)]

    def rec(prefix, remaining_vars, budget):
        if remaining_vars == 1:
            for e in range(budget + 1):
                t = prefix + (e,)
                by_degree[sum(t)].append(t)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining_vars - 1, budget - e)

    rec((), nvars, K)
    return tuple(m for block in by_degree for m in sorted(block))


def _largest_truncation(n):
    K = 2
    while True:
        try:
            jets.check_chart_shape(n, K + 1)
        except ValueError:
            return K
        K += 1


def _assert_same_arrays(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n,K", [(2, 10), (3, 7), (4, 5), (2, 19), (3, 10),
                                 (4, 7),
                                 *[(n, _largest_truncation(n)) for n in (2, 3, 4)]])
def test_tables_equal_the_loop_tables(n, K):
    ctx = JetContext(n, K, (1.0,) * (n - 1))
    monomials = _loop_basis(ctx.nvars, K)
    assert ctx.monomials == monomials
    degrees = np.array([sum(m) for m in monomials], dtype=np.int64)
    _assert_same_arrays([ctx.degrees, ctx._exps],
                        [degrees, np.array(monomials, dtype=np.int64)])
    assert ctx.sizes == tuple(int(np.count_nonzero(degrees <= d))
                              for d in range(K + 1))
    _assert_same_arrays(ctx.mul_table(), _loop_mul_table(ctx))
    for var in range(ctx.nvars):
        _assert_same_arrays(ctx.diff_table(var), _loop_diff_table(ctx, var))


def test_matrix_products_keep_two_tables_of_gather_memory():
    # a full-accuracy 4x4 product gathers 24 values per table pair; it runs
    # in chunks of whole targets inside the buffer of two tables
    ctx = make_context(n=3, K=5, xi0=(0.7, -1.1))
    rng = np.random.default_rng(5)
    m = JetMatrix(ctx, [[random_jet(ctx, rng, degree=5) for _ in range(4)]
                        for _ in range(4)])
    sizes = []

    def work():
        m @ m, m * m[0, 0], m[0, 0] * m[1, 1]
        sizes.extend(b.size for b in jets._PRODUCT_PLANS.buffers.values())

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert sizes == [2 * len(ctx.mul_table()[0])]


def test_jet_times_array_keeps_the_jet_on_the_left():
    # jet products are not bitwise commutative, so c * M must be c * M[i, j]
    # entry by entry, not M[i, j] * c
    ctx = make_context(n=3, K=5, xi0=(0.7, -1.1))
    rng = np.random.default_rng(21)
    c = random_jet(ctx, rng, degree=5)
    m = JetMatrix(ctx, [[random_jet(ctx, rng, degree=5) for _ in range(3)]
                        for _ in range(2)])
    m = JetMatrix._wrap(ctx, m.coeffs, m.accuracy, 1)
    scaled = c * m
    assert isinstance(scaled, JetMatrix) and scaled.degree == 1
    assert any(not np.array_equal((c * m[i, j]).coeffs, (m[i, j] * c).coeffs)
               for i in range(2) for j in range(3))
    for i in range(2):
        for j in range(3):
            assert np.array_equal(scaled[i, j].coeffs, (c * m[i, j]).coeffs)
            assert np.array_equal((m * c)[i, j].coeffs, (m[i, j] * c).coeffs)



def test_jet_arrays_index_stack_block_and_sum_entry_by_entry():
    ctx = make_context(n=3, K=4, xi0=(0.7, -1.1))
    rng = np.random.default_rng(22)
    entries = [[[random_jet(ctx, rng, degree=4) for _ in range(2)]
                for _ in range(3)] for _ in range(2)]
    a = jets.stack([jets.stack([jets.stack(row) for row in plane])
                    for plane in entries])
    assert a.coeffs.shape == (2, 3, 2, ctx.sizes[4])
    assert np.array_equal(a[1, 2, 0].coeffs, entries[1][2][0].coeffs)
    assert isinstance(a[0, :2], JetMatrix) and a[1, :, 0].coeffs.shape[0] == 3
    assert np.array_equal(a.transpose(2, 0, 1)[1, 0, 2].coeffs,
                          a[0, 2, 1].coeffs)
    # an index may not reach the coefficient axis
    for key in ((0, 0, 0, 0), (..., 0), (None, 0)):
        with pytest.raises(IndexError):
            a[key]
    with pytest.raises(ValueError, match="read-only"):
        a[0, :, 0].coeffs[0, 0] = 1.0
    # stacks and blocks are trusted to the lowest accuracy
    low = entries[1][2][0].with_accuracy(2)
    assert jets.stack([entries[0][0][0], low]).coeffs.shape == (2, ctx.sizes[2])
    m = a[0, :2]
    block = JetMatrix.block(ctx, [[m, m[:, :1]], [low.reshape(1, 1), m[:1]]])
    assert block.accuracy == 2 and block.coeffs.shape == (3, 3, ctx.sizes[2])
    assert np.array_equal(block[2, 1].coeffs, m[0, 0].coeffs[:ctx.sizes[2]])
    # a sum over the first axis adds its terms in order
    assert np.array_equal(a.sum().coeffs, (a[0, :, :] + a[1, :, :]).coeffs)
    # entrywise products broadcast, each keeping its left operand
    col, row = a[0, :, 0].reshape(3, 1), a[1, 0, :].reshape(1, 2)
    outer = col * row
    for i in range(3):
        for j in range(2):
            assert np.array_equal(outer[i, j].coeffs,
                                  (col[i, 0] * row[0, j]).coeffs)
