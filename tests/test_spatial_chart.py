"""The spatial chart: jets free of the covector, on the x-variables alone.

Every operation on x-only operands, run on the spatial chart and lifted
back, equals the same operation on the full chart, and has its bits on
every x-only coefficient.  An operation between a spatial and a full jet
equals the operation on the spatial operand lifted through its coefficient
map (``oracles.lift``), bit for bit, with the spatial operand on either
side.  An operation that would lift to any other chart is refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_dtn import (
    ContextMismatch,
    Jet,
    JetContext,
    JetMatrix,
    mat_inverse,
    reciprocal,
    sqrt,
)

from oracles import lift

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
CHARTS = [(2, 2), (2, 4), (2, 6), (3, 2), (3, 3), (3, 5), (4, 2), (4, 4)]
XI0 = (0.8, -1.2, 0.6)


def _coeffs(chart, rng, kind, accuracy, x_only, shape=()):
    """Coefficients of jets of one accuracy: a real positive constant term,
    and for ``kind`` "random" complex terms on every monomial (x-only ones
    alone if ``x_only``); "zero" jets are zero."""
    c = np.zeros(shape + (chart.sizes[accuracy],), dtype=np.complex128)
    if kind == "zero":
        return c
    c[..., 0] = rng.uniform(0.5, 2.0, size=shape)
    if kind == "random":
        n = chart.dimension
        free = [i for i, m in enumerate(chart.monomials[1:c.shape[-1]], 1)
                if not (x_only and any(m[n:]))]
        size = shape + (len(free),)
        c[..., free] = rng.normal(0, 0.3, size) + 1j * rng.normal(0, 0.3, size)
    return c


def _jet(chart, rng, kind, accuracy, x_only=True):
    return Jet(chart, _coeffs(chart, rng, kind, accuracy, x_only), accuracy)


def _matrix(chart, rng, kind, accuracy, x_only=True):
    """An n x n matrix; unless zero, its constant term is near the identity."""
    n = chart.dimension
    c = _coeffs(chart, rng, kind, accuracy, x_only, (n, n))
    if kind != "zero":
        c[:, :, 0] = np.eye(n) + rng.uniform(-0.2, 0.2, (n, n))
    return JetMatrix(chart, [[Jet(chart, c[i, j], accuracy) for j in range(n)]
                             for i in range(n)])


@st.composite
def x_only_operands(draw):
    """A full chart, a generator, and x-only jets a, b and matrices ma, mb
    on it; b and mb may be constant or zero, so that every shortcut of the
    product kernel runs."""
    n, K = draw(st.sampled_from(CHARTS))
    chart = JetContext(n, K, XI0[:n - 1])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def accuracy():
        return draw(st.integers(1, K))

    some = st.sampled_from(["random", "constant"])
    every = st.sampled_from(["random", "constant", "zero"])
    return chart, rng, (_jet(chart, rng, draw(some), accuracy()),
                        _jet(chart, rng, draw(every), accuracy()),
                        _matrix(chart, rng, draw(some), accuracy()),
                        _matrix(chart, rng, draw(every), accuracy()))


OPERATIONS = {
    "product": lambda a, b, ma, mb: a * b,
    "scaling": lambda a, b, ma, mb: a * 0.75j,
    "matrix_times_jet": lambda a, b, ma, mb: ma * b,
    "jet_times_matrix": lambda a, b, ma, mb: a * mb,
    "matmul": lambda a, b, ma, mb: ma @ mb,
    "sum": lambda a, b, ma, mb: a + b,
    "difference": lambda a, b, ma, mb: b - a,
    "number_sum": lambda a, b, ma, mb: 2.5 + a,
    "number_difference": lambda a, b, ma, mb: 1.5 - b,
    "matrix_sum": lambda a, b, ma, mb: ma + mb,
    "matrix_difference": lambda a, b, ma, mb: ma - mb,
    "dx": lambda a, b, ma, mb: a.dx(0),
    "dn": lambda a, b, ma, mb: ma.dn(),
    "lower_accuracy": lambda a, b, ma, mb: ma.with_accuracy(ma.accuracy - 1),
    "raise_accuracy": lambda a, b, ma, mb: a.with_accuracy(a.accuracy + 1),
    "reciprocal": lambda a, b, ma, mb: reciprocal(a),
    "sqrt": lambda a, b, ma, mb: sqrt(a),
    "mat_inverse": lambda a, b, ma, mb: mat_inverse(ma),
}


@pytest.mark.parametrize("name", OPERATIONS)
@SETTINGS
@given(case=x_only_operands())
def test_spatial_operations_have_the_full_chart_bits(name, case):
    chart, _, operands = case
    full = OPERATIONS[name](*operands)
    spatial = OPERATIONS[name](*[x.spatial_part() for x in operands])
    assert spatial.context is chart.spatial
    assert spatial.accuracy == full.accuracy
    assert np.array_equal(lift(spatial, chart).coeffs, full.coeffs)
    assert spatial.coeffs.tobytes() == full.spatial_part().coeffs.tobytes()


MIXED = {
    "sum": lambda x, y: x + y,
    "difference": lambda x, y: x - y,
    "allclose": lambda x, y: x.allclose(y, tol=0.5),
}


@SETTINGS
@given(case=x_only_operands())
def test_mixed_operations_lift_the_spatial_operand(case):
    chart, rng, (a, b, ma, mb) = case
    g = _jet(chart, rng, "random", chart.truncation_order, x_only=False)
    gm = _matrix(chart, rng, "random", chart.truncation_order, x_only=False)
    pairs = [(a, g, {"product": lambda x, y: x * y, **MIXED}), (mb, gm, MIXED),
             (ma, gm, {"matmul": lambda x, y: x @ y}),
             (ma, g, {"scaled": lambda x, y: x * y}),
             (b, gm, {"scaling": lambda x, y: x * y})]

    def same(x, y):
        if isinstance(x, bool):
            assert x == y
        else:
            assert x.context is chart and y.context is chart
            assert x.accuracy == y.accuracy
            assert x.coeffs.tobytes() == y.coeffs.tobytes()

    for x_only, other, operations in pairs:
        s = x_only.spatial_part()
        lifted = lift(s, chart)
        for operation in operations.values():
            same(operation(s, other), operation(lifted, other))
            same(operation(other, s), operation(other, lifted))
    same(JetMatrix(chart, [[a.spatial_part(), g], [g, b.spatial_part()]]),
         JetMatrix(chart, [[lift(a.spatial_part(), chart), g],
                           [g, lift(b.spatial_part(), chart)]]))


@SETTINGS
@given(case=x_only_operands())
def test_restriction_and_lift_keep_the_coefficient_map(case):
    chart, rng, (a, *_) = case
    n = chart.dimension
    g = _jet(chart, rng, "random", a.accuracy, x_only=False)
    s = g.spatial_part()
    assert s.coefficients() == {m[:n]: v for m, v in g.coefficients().items()
                                if not any(m[n:])}
    # a mixed operation lifts the spatial operand
    assert (s + Jet.zero(chart)).coefficients() == {
        m + (0,) * (n - 2): v for m, v in s.coefficients().items()}
    assert s.spatial_part() is s


def test_lifting_refuses_a_foreign_chart():
    spatial = JetContext(4, 4, (1.0, 1.0, 1.0)).spatial
    x = Jet.variable(spatial, 0) + 1.0
    # the spatial chart of n = 4 and the full chart of n = 3 have the same
    # table shape; only the chart check tells them apart
    narrow = JetContext(3, 4, (1.0, 1.0))
    assert spatial.nvars == narrow.nvars
    foreign = [narrow, narrow.spatial, JetContext(4, 5, (1.0, 1.0, 1.0)),
               JetContext(4, 4, (1.0, -1.0, 1.0)),
               JetContext(4, 4, (1.0, -1.0, 1.0)).spatial]
    column = JetMatrix.column(spatial, [x])
    for chart in foreign:
        other = Jet.variable(chart, 0)
        for call in (lambda: x * other,
                     lambda: other * x, lambda: x + other,
                     lambda: x.allclose(other),
                     lambda: JetMatrix(chart, [[x]]),
                     lambda: column @ JetMatrix(chart, [[other]])):
            with pytest.raises(ContextMismatch):
                call()
    # a full jet is never restricted by an operation, also for n = 2,
    # where the two charts have the same variables
    for full in (spatial.full, JetContext(2, 4, (1.0,))):
        with pytest.raises(ContextMismatch):
            JetMatrix(full.spatial, [[Jet.variable(full, 0)]])
        y = Jet.variable(full.spatial, 0)
        assert (y * Jet.variable(full, 1)).context is full


def test_spatial_chart_has_no_cotangent_variables():
    spatial = JetContext(3, 4, (1.0, -0.5)).spatial
    x = Jet.variable(spatial, 2)
    for call in (lambda: spatial.xi_index(0), lambda: x.dxi(0),
                 lambda: Jet.xi_component(spatial, 1),
                 lambda: x.substitute_xi([0.1, 0.2])):
        with pytest.raises(ValueError, match="no cotangent variables"):
            call()
    assert spatial.spatial is spatial and spatial.full.spatial is spatial
    assert "spatial" in repr(spatial) and "spatial" not in repr(spatial.full)
