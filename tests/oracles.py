"""Independent brute-force polynomial arithmetic used as a test oracle.

Deliberately shares nothing with the package implementation: plain dicts
keyed by exponent tuples, naive convolution products, and degree-by-degree
series division/square root.  Slow and simple on purpose.

Three oracles here are written with the package's jets.
:func:`p1_closed_form` does not go through the factorization recursion
that the package uses to reach the same level.  :func:`order1_form` and
:func:`xi_up_by_double_inversion` are the routes that peeling took before
every order was read by one rule and the boundary factorization was built
from the recovered block g^{ab} itself.
"""

from __future__ import annotations

import math


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def poly_scale(a, s):
    return {k: v * s for k, v in a.items()}


def poly_mul(a, b, cap):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) > cap:
                continue
            out[k] = out.get(k, 0) + va * vb
    return out


def poly_partial(a, var):
    out = {}
    for k, v in a.items():
        if k[var] == 0:
            continue
        lowered = list(k)
        lowered[var] -= 1
        out[tuple(lowered)] = out.get(tuple(lowered), 0) + v * k[var]
    return out


def _by_degree(a, degree):
    return {k: v for k, v in a.items() if sum(k) == degree}


def poly_reciprocal(a, nvars, cap):
    zero = (0,) * nvars
    c0 = a.get(zero, 0)
    out = {zero: 1.0 / c0}
    for d in range(1, cap + 1):
        correction = {}
        for da in range(1, d + 1):
            part = poly_mul(_by_degree(a, da), _by_degree(out, d - da), cap)
            correction = poly_add(correction, part)
        for k, v in _by_degree(correction, d).items():
            out[k] = -v / c0
    return out


def poly_sqrt(a, nvars, cap):
    zero = (0,) * nvars
    c0 = a.get(zero, 0)
    r0 = math.sqrt(c0.real if isinstance(c0, complex) else c0)
    out = {zero: r0}
    for d in range(1, cap + 1):
        known = {}
        for da in range(1, d):
            part = poly_mul(_by_degree(out, da), _by_degree(out, d - da), cap)
            known = poly_add(known, part)
        for k in set(_by_degree(a, d)) | set(_by_degree(known, d)):
            v = a.get(k, 0) - known.get(k, 0)
            out[k] = v / (2 * r0)
    return out


def poly_eval(a, point):
    total = 0
    for k, v in a.items():
        term = v
        for e, p in zip(k, point):
            term *= p ** e
        total += term
    return total


def evaluate(jet, x=(), xi_offset=()):
    """Value of a jet at x and the hyperplane offsets t, zero where not
    given.

    Reads only the sparse coefficient map, whose keys on a spatial chart
    have no offset exponents.
    """
    n = jet.context.dimension
    point = (list(x) + [0.0] * (n - len(x))
             + list(xi_offset) + [0.0] * (n - 2 - len(xi_offset)))
    return poly_eval(jet.coefficients(), point)


def homogeneous_value(jet, x, covector):
    """Value at (x, covector) of the function a hyperplane jet stands for,
    extended by homogeneity: f(v) = s^d f(xi0 + E t) for v = s (xi0 + E t).

    Needs v . xi0 > 0.  Only the chart's base covector and its basis E of
    the complement are read, besides the coefficient map.
    """
    xi0 = [float(v) for v in jet.context.base_covector]
    basis = jet.context.hyperplane_basis
    s = sum(v * w for v, w in zip(covector, xi0)) / sum(w * w for w in xi0)
    t = [sum(covector[a] * basis[a][k] for a in range(len(xi0))) / s
         for k in range(len(xi0) - 1)]
    return s ** jet.degree * evaluate(jet, x=x, xi_offset=t)


def lift(x, chart):
    """A jet, or matrix of jets, of x alone on the full ``chart``: each
    coefficient, signed zeros included, keyed by its x-exponents followed by
    zero offset exponents."""
    pad = (0,) * (chart.nvars - x.context.nvars)

    def one(jet):
        return type(jet).from_coefficients(
            chart, {m + pad: v for m, v in zip(jet.context.monomials, jet.coeffs)},
            jet.accuracy, jet.degree)

    if x.coeffs.ndim == 1:
        return one(x)
    return type(x)(chart, [[one(x[i, j]) for j in range(x.cols)]
                           for i in range(x.rows)])


def jet_to_poly(jet):
    return {tuple(k): v for k, v in jet.coefficients().items()}


def assert_poly_close(a, b, cap, tol=1e-13):
    keys = set(a) | set(b)
    worst = 0.0
    for k in keys:
        if sum(k) > cap:
            continue
        worst = max(worst, abs(a.get(k, 0) - b.get(k, 0)))
    assert worst <= tol, f"polynomial mismatch: max deviation {worst}"


def p1_closed_form(ctx):
    """The principal boundary symbol from its closed form, entry by entry:

        mu (|xi| delta^a_b + (lam + mu) / (lam + 3 mu) xi^a xi_b / |xi|)
        -2i mu^2 / (lam + 3 mu) xi^a,     2i mu^2 / (lam + 3 mu) xi_b,
        2 mu (lam + 2 mu) / (lam + 3 mu) |xi|

    (tangential block, last column, last row, corner), from a symbol
    context's Lame jets, cotangent norm and raised covector.
    """
    from elastic_dtn import JetMatrix

    nn = ctx.chart.dimension - 1
    lam, mu = ctx.lame.lam, ctx.lame.mu
    inv_l3m = ctx.lame.inv_l3m
    rows = []
    for a in range(nn):
        prefix = mu * (lam + mu) * inv_l3m * ctx.inv_norm * ctx.xi_up[a]
        row = [prefix * ctx.xi_down[b] for b in range(nn)]
        row[a] = row[a] + mu * ctx.norm
        rows.append(row + [-2j * mu * mu * inv_l3m * ctx.xi_up[a]])
    rows.append([2j * mu * mu * inv_l3m * ctx.xi_down[b] for b in range(nn)]
                + [2 * mu * (lam + 2 * mu) * inv_l3m * ctx.norm])
    return JetMatrix(ctx.chart, rows)


def order1_form(delta_corner, lame, norm_sq):
    """The order-1 quadratic form from the (n,n) entry of the level
    difference of degree 0 alone:

        -delta[n,n] (lam + 3 mu)^2 / mu^2 |xi|^2
    """
    from elastic_dtn import reciprocal

    lam, mu = lame.lam, lame.mu
    return -delta_corner * (lam + 3 * mu) * (lam + 3 * mu) \
        * reciprocal(mu * mu) * norm_sq


def xi_up_by_double_inversion(g_inv, chart):
    """The raised covector g^{ab} xi_b on ``chart``, one entry at a time,
    with g^{ab} read off the inverse of the full metric: g_inv inverted to
    g_ab, padded with a unit normal entry and inverted again."""
    from elastic_dtn import Jet, mat_inverse
    from elastic_dtn.geometry import MetricJet, assemble_full_metric

    nn = chart.dimension - 1
    g = mat_inverse(g_inv)
    full_inverse = mat_inverse(assemble_full_metric(MetricJet(g.context,
                                                              g.real_part())))
    up = []
    for a in range(nn):
        entry = Jet.zero(chart)
        for b in range(nn):
            entry = entry + full_inverse[a, b] * Jet.xi_component(chart, b)
        up.append(entry)
    return up
