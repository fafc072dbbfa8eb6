"""Boundary-normal-coordinate geometry over jets.

Conventions: coordinates x_1..x_n with x_n the distance to the boundary,
so the full metric has unit normal-normal entry and vanishing mixed
entries; only the tangential block g_{alpha beta}(x) varies.  Greek
indices run over 0..n-2 (tangential), Roman over 0..n-1, with n-1 the
normal direction.  All tensors are arrays of jets; the connection
Gamma^j_{kl} is one (n, n, n) array, ``gamma[j, k, l]``.  The symbol path
contracts it by whole-array operations whose products and sums keep the
operand and term order of the entry-by-entry formulas, so the outputs
keep their last bits.

The metric and Lame jets are functions of x alone and live on the spatial
chart (:attr:`~elastic_dtn.jets.JetContext.spatial`), so everything built
from them alone here (the inverse metric, the connection, traces, raised
gradients and the multiplier matrices) is computed on that chart, with a
fraction of the pair work; terms that meet a jet of the full chart, such
as a vector field or a cotangent factor, are lifted to it.

The module carries the isotropic elastic operator in two independent
forms: once assembled from covariant derivatives (``lame_apply``) and once
as a normal-direction second-order system (``apply_decomposition``).
Their agreement, after scaling rows by the leading coefficient matrix, is
the module's central oracle and is exercised heavily in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import (
    APPROX_TOL,
    AccuracyExhausted,
    Jet,
    JetContext,
    JetMatrix,
    _JetArray,
    mat_inverse,
    reciprocal,
    stack,
)

_REALITY_TOL = 1e-12
_EIGEN_TOL = 1e-10


def _require_real_spatial(jets, what: str):
    """The real part, on the spatial chart, of a jet or matrix of jets that
    must not depend on xi."""
    if jets.max_imag() > _REALITY_TOL:
        raise ValueError(f"{what} must be real")
    if jets.depends_on_xi():
        raise ValueError(f"{what} must not depend on the cotangent variables")
    return jets.real_part().spatial_part()


@dataclass(frozen=True)
class MetricJet:
    """Tangential metric block g_{alpha beta}(x): one real, symmetric JetMatrix.

    Block and ``context`` are on the spatial chart.
    """

    context: JetContext
    _block: JetMatrix

    def __init__(self, context: JetContext, entries):
        n = context.dimension
        rows = [list(r) for r in entries]
        if len(rows) != n - 1 or any(len(r) != n - 1 for r in rows):
            raise ValueError(f"metric block must be {n - 1}x{n - 1}")
        block = _require_real_spatial(JetMatrix(context, rows), "metric entry")
        gap = np.abs((block - block.transpose()).coeffs)
        unequal = np.argwhere(np.triu(~np.all(gap <= _REALITY_TOL, axis=-1), 1))
        if len(unequal):
            a, b = unequal[0]
            raise ValueError(f"metric block not symmetric at ({a},{b})")
        block = block.symmetrized()
        # written so that NaN, from an overflowing mean, fails it
        if not np.min(np.linalg.eigvalsh(block.coeffs[:, :, 0].real)) > _EIGEN_TOL:
            raise ValueError("metric block must be positive definite at the base point")
        object.__setattr__(self, "context", block.context)
        object.__setattr__(self, "_block", block)

    def tangential_matrix(self) -> JetMatrix:
        return self._block


@dataclass(frozen=True)
class LameJet:
    """The two material coefficient fields as real jets on the spatial chart."""

    lam: Jet
    mu: Jet

    def __init__(self, lam: Jet, mu: Jet):
        lam = _require_real_spatial(lam, "lambda coefficient")
        mu = _require_real_spatial(mu, "mu coefficient")
        mu0 = mu.constant_term.real
        lam0 = lam.constant_term.real
        # with lambda + mu >= 0, mu above the inversion threshold keeps
        # lambda + 2 mu and lambda + 3 mu above it too, so every reciprocal
        # the symbols take exists
        if not (mu0 > APPROX_TOL and lam0 + mu0 >= 0.0):
            raise ValueError(
                "inadmissible material coefficients: require mu > 0 and "
                f"lambda + mu >= 0 at the base point, with mu above "
                f"{APPROX_TOL:g} (got mu={mu0:g}, lambda+mu={lam0 + mu0:g})"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @classmethod
    def constant(cls, context: JetContext, lam: float, mu: float) -> "LameJet":
        return cls(Jet.constant(context, lam), Jet.constant(context, mu))

    @cached_property
    def inv_mu(self) -> Jet:
        """1 / mu."""
        return reciprocal(self.mu)

    @cached_property
    def inv_l2m(self) -> Jet:
        """1 / (lambda + 2 mu)."""
        return reciprocal(self.lam + 2 * self.mu)

    @cached_property
    def inv_l3m(self) -> Jet:
        """1 / (lambda + 3 mu)."""
        return reciprocal(self.lam + 3 * self.mu)


def assemble_full_metric(metric: MetricJet) -> JetMatrix:
    """Embed the tangential block: unit normal entry, no mixed entries."""
    block = metric.tangential_matrix()
    full = np.pad(block.coeffs, ((0, 1), (0, 1), (0, 0)))
    full[-1, -1, 0] = 1.0
    return JetMatrix._wrap(metric.context, full, block.accuracy, 0)


def christoffel(g: JetMatrix, ginv: JetMatrix) -> _JetArray:
    """Gamma^j_{kl} at [j, k, l]: g^{jm} S[m, (k, l)] / 2, one matrix
    product, with S[m, k, l] = d_l g_km + d_k g_lm - d_m g_kl.

    g is exactly symmetric, so S, and Gamma, are exactly symmetric in k
    and l.
    """
    n = g.context.dimension
    dg = stack([g.dx(l) for l in range(n)])  # d_l g_km at [l, k, m]
    s = dg.transpose(2, 1, 0) + dg.transpose(2, 0, 1) - dg
    return ((ginv @ s.reshape(n, n * n)) * 0.5).reshape(n, n, n)


def ricci(gamma: _JetArray) -> JetMatrix:
    ctx = gamma.context
    n = ctx.dimension

    def entry(k: int, l: int) -> Jet:
        acc = Jet.zero(ctx)
        for j in range(n):
            acc = acc + gamma[j, k, l].dx(j) - gamma[j, j, l].dx(k)
            for m in range(n):
                acc = acc + gamma[j, j, m] * gamma[m, k, l] \
                          - gamma[j, k, m] * gamma[m, j, l]
        return acc

    return JetMatrix(ctx, [[entry(k, l) for l in range(n)] for k in range(n)])


@dataclass(frozen=True)
class _Geometry:
    g: JetMatrix
    ginv: JetMatrix
    gamma: _JetArray  # Gamma^j_{kl} at [j, k, l]

    @cached_property
    def trace(self) -> _JetArray:
        """Connection traces Gamma^c_{cb} (tangential c) for every b."""
        c = np.arange(self.g.context.dimension - 1)
        return self.gamma[c, c].sum()

    def raised_gradient(self, f: Jet) -> _JetArray:
        """Raised tangential gradient g^{ab} d_b f for every tangential a."""
        nn = self.g.context.dimension - 1
        grad = stack([f.dx(b) for b in range(nn)]).reshape(nn, 1)
        return (self.ginv[:nn, :nn] @ grad).reshape(nn)


def prepare(metric: MetricJet) -> _Geometry:
    g = assemble_full_metric(metric)
    ginv = mat_inverse(g)
    return _Geometry(g, ginv, christoffel(g, ginv))


def _check_vector(u: JetMatrix) -> None:
    if u.cols != 1 or u.rows != u.context.dimension:
        raise ValueError("vector field needs one component per dimension")
    if u.accuracy < 2:
        raise AccuracyExhausted("vector field accuracy below 2")


def lame_apply(u: JetMatrix, metric: MetricJet, lame: LameJet) -> JetMatrix:
    """Apply the isotropic elastic operator assembled covariantly.

    Components: mu * (Bochner Laplacian) + (lambda+mu) * grad div
    + mu * Ricci action + (grad lambda) * div + strain(u) applied to
    grad mu, all expressed through the connection of the full metric.
    """
    _check_vector(u)
    geo = prepare(metric)
    ctx = u.context
    n = ctx.dimension
    g, ginv, gamma = geo.g, geo.ginv, geo.gamma
    lam, mu = lame.lam, lame.mu
    comps = [u[j, 0] for j in range(n)]

    # nabla_k u^j
    cov = [[comps[j].dx(k) for k in range(n)] for j in range(n)]
    for j in range(n):
        for k in range(n):
            for l in range(n):
                cov[j][k] = cov[j][k] + gamma[j, k, l] * comps[l]

    div_u = cov[0][0]
    for k in range(1, n):
        div_u = div_u + cov[k][k]

    # second covariant derivative of the (1,1) tensor, contracted to the
    # Bochner Laplacian g^{km} nabla_m nabla_k u^j
    bochner = []
    for j in range(n):
        acc = Jet.zero(ctx)
        for k in range(n):
            for m in range(n):
                term = cov[j][k].dx(m)
                for l in range(n):
                    term = term + gamma[j, m, l] * cov[l][k] \
                                - gamma[l, m, k] * cov[j][l]
                acc = acc + ginv[k, m] * term
        bochner.append(acc)

    def raise_gradient(f: Jet) -> list[Jet]:
        df = [f.dx(k) for k in range(n)]
        return [sum((ginv[j, k] * df[k] for k in range(1, n)),
                    ginv[j, 0] * df[0]) for j in range(n)]

    grad_div = raise_gradient(div_u)
    grad_lam = raise_gradient(lam)
    grad_mu = raise_gradient(mu)

    ric = ricci(gamma)
    ric_u = []
    for j in range(n):
        acc = Jet.zero(ctx)
        for k in range(n):
            for l in range(n):
                acc = acc + ginv[j, k] * ric[k, l] * comps[l]
        ric_u.append(acc)

    # strain (S u)^j_k = nabla^j u_k + nabla_k u^j, lowered field u_k
    low = [sum((g[k, l] * comps[l] for l in range(1, n)), g[k, 0] * comps[0])
           for k in range(n)]
    cov_low = [[low[k].dx(m) for m in range(n)] for k in range(n)]
    for m in range(n):
        for k in range(n):
            for l in range(n):
                cov_low[k][m] = cov_low[k][m] - gamma[l, m, k] * low[l]
    strain = [[cov[j][k] for k in range(n)] for j in range(n)]
    for j in range(n):
        for k in range(n):
            for m in range(n):
                strain[j][k] = strain[j][k] + ginv[j, m] * cov_low[k][m]

    out = []
    for j in range(n):
        term = mu * bochner[j] + (lam + mu) * grad_div[j] + mu * ric_u[j] \
            + grad_lam[j] * div_u
        for k in range(n):
            term = term + strain[j][k] * grad_mu[k]
        out.append(term)
    return JetMatrix.column(ctx, out)


# -- the normal-direction second-order system ---------------------------
#
# The coefficient matrices below are transcribed directly as differential
# operators.  The symbol module re-transcribes the first- and second-order
# parts (b1, c2, c1) independently as functions of the cotangent variable,
# and the plane-wave consistency check ties the two transcriptions
# together.  The multiplier parts (b0, c0) exist only here; the symbol
# module imports them, and the operator identity against ``lame_apply``
# is what checks them.


def leading_coefficient(lame: LameJet, context: JetContext) -> JetMatrix:
    """Diagonal factor scaling the elastic operator's normal second order."""
    n = context.dimension
    diag = [lame.mu] * (n - 1) + [lame.lam + 2 * lame.mu]
    return JetMatrix.diagonal(context, diag)


def leading_coefficient_inverse(lame: LameJet, context: JetContext) -> JetMatrix:
    n = context.dimension
    return JetMatrix.diagonal(context, [lame.inv_mu] * (n - 1) + [lame.inv_l2m])


def normal_multiplier_matrix(geo: _Geometry, lame: LameJet) -> JetMatrix:
    """Zeroth-order coefficient of the first-order block of the system."""
    ctx = geo.g.context
    nn = ctx.dimension - 1
    gamma, trace = geo.gamma, geo.trace
    lam, mu = lame.lam, lame.mu
    inv_mu, inv_l2m = lame.inv_mu, lame.inv_l2m
    grad_lam = geo.raised_gradient(lam)

    rows = []
    for a in range(nn):
        row = [2 * gamma[a, b, nn] for b in range(nn)]
        row[a] = row[a] + trace[nn] + inv_mu * mu.dn()
        rows.append(row + [inv_mu * grad_lam[a]])
    rows.append([(lam + mu) * inv_l2m * trace[a] + inv_l2m * mu.dx(a)
                 for a in range(nn)]
                + [trace[nn] + inv_l2m * (lam + 2 * mu).dn()])
    return JetMatrix(ctx, rows)


def zeroth_order_matrix(geo: _Geometry, lame: LameJet) -> JetMatrix:
    """Multiplier part of the tangential block of the system."""
    n = geo.g.context.dimension
    nn = n - 1
    ginv, trace = geo.ginv, geo.trace
    lam, mu = lame.lam, lame.mu
    inv_mu, inv_l2m = lame.inv_mu, lame.inv_l2m
    s_ratio = (lam + mu) * inv_mu
    # g^{ml} d_k Gamma^j_{ml} at [j, k], the (m, l) sum in row-major order
    dgamma = stack([geo.gamma.dx(k) for k in range(n)], axis=3)  # [j, m, l, k]
    contracted = (ginv.reshape(1, n * n)
                  @ dgamma.transpose(1, 2, 0, 3).reshape(n * n, n * n)
                  ).reshape(n, n)
    dginv = stack([ginv.dx(b) for b in range(n)], axis=2)  # d_b g^{ac} at [a, c, b]

    # the order of each sum is part of the output: symbols documents carry
    # its last bits
    tangential = contracted[:nn]
    for c in range(nn):
        tangential = tangential + (s_ratio * ginv[:nn, c]).reshape(nn, 1) \
            * trace.dx(c).reshape(1, n)
        tangential = tangential - inv_mu * mu.dx(c) * dginv[:nn, c]
    tangential = tangential \
        + (inv_mu * geo.raised_gradient(lam)).reshape(nn, 1) * trace.reshape(1, n)
    normal = (lam + mu) * inv_l2m * trace.dn() \
        + mu * inv_l2m * contracted[nn, :] \
        + inv_l2m * lam.dn() * trace
    return JetMatrix.block(geo.g.context, [[tangential], [normal.reshape(1, n)]])


def apply_B(v: JetMatrix, geo: _Geometry, lame: LameJet) -> JetMatrix:
    """First-order coefficient block applied to a column of jets."""
    ctx = v.context
    n = ctx.dimension
    nn = n - 1
    ginv = geo.ginv
    lam, mu = lame.lam, lame.mu
    inv_mu, inv_l2m = lame.inv_mu, lame.inv_l2m
    comps = [v[j, 0] for j in range(n)]

    out = []
    for a in range(nn):
        term = Jet.zero(ctx)
        for b in range(nn):
            term = term + (lam + mu) * inv_mu * ginv[a, b] * comps[nn].dx(b)
        out.append(term)
    last = Jet.zero(ctx)
    for b in range(nn):
        last = last + (lam + mu) * inv_l2m * comps[b].dx(b)
    out.append(last)

    mult = normal_multiplier_matrix(geo, lame)
    for j in range(n):
        for k in range(n):
            out[j] = out[j] + mult[j, k] * comps[k]
    return JetMatrix.column(ctx, out)


def apply_C(v: JetMatrix, geo: _Geometry, lame: LameJet) -> JetMatrix:
    """Tangential block (second, first and zeroth order) applied to a column."""
    ctx = v.context
    n = ctx.dimension
    nn = n - 1
    ginv, gamma, trace = geo.ginv, geo.gamma, geo.trace
    lam, mu = lame.lam, lame.mu
    inv_mu, inv_l2m = lame.inv_mu, lame.inv_l2m
    s_ratio = (lam + mu) * inv_mu
    grad_lam = geo.raised_gradient(lam)
    grad_mu = geo.raised_gradient(mu)
    comps = [v[j, 0] for j in range(n)]

    def tangential_laplace(f: Jet) -> Jet:
        acc = Jet.zero(ctx)
        for a in range(nn):
            for b in range(nn):
                acc = acc + ginv[a, b] * f.dx(a).dx(b)
        return acc

    def scalar_first_order(f: Jet) -> Jet:
        # (g^{ab} Gamma^c_{ac} + d_a g^{ab}) d_b f
        acc = Jet.zero(ctx)
        for a in range(nn):
            for b in range(nn):
                coef = ginv[a, b].dx(a)
                for c in range(nn):
                    coef = coef + ginv[a, b] * gamma[c, a, c]
                acc = acc + coef * f.dx(b)
        return acc

    out = []
    for a in range(nn):
        term = tangential_laplace(comps[a])
        for c in range(nn):
            for b in range(nn):
                term = term + s_ratio * ginv[a, c] * comps[b].dx(c).dx(b)
        term = term + scalar_first_order(comps[a])
        for c in range(nn):
            term = term + s_ratio * ginv[a, c] * trace[nn] * comps[nn].dx(c)
            for b in range(nn):
                term = term + s_ratio * ginv[a, c] * trace[b] * comps[b].dx(c)
        for c in range(nn):
            for r in range(nn):
                term = term + 2 * ginv[c, r] * gamma[a, r, nn] * comps[nn].dx(c)
                for b in range(nn):
                    term = term + 2 * ginv[c, r] * gamma[a, r, b] * comps[b].dx(c)
        for c in range(nn):
            term = term + inv_mu * grad_mu[c] * comps[a].dx(c)
        for b in range(nn):
            term = term + inv_mu * grad_lam[a] * comps[b].dx(b)
            for c in range(nn):
                term = term + inv_mu * ginv[a, c] * mu.dx(b) * comps[b].dx(c)
        for b in range(nn):
            term = term + inv_mu * mu.dn() * ginv[a, b] * comps[nn].dx(b)
        out.append(term)

    last = mu * inv_l2m * tangential_laplace(comps[nn]) \
        + mu * inv_l2m * scalar_first_order(comps[nn])
    for c in range(nn):
        for r in range(nn):
            for b in range(nn):
                last = last + 2 * mu * inv_l2m * ginv[c, r] * gamma[nn, r, b] \
                    * comps[b].dx(c)
    for b in range(nn):
        last = last + inv_l2m * lam.dn() * comps[b].dx(b)
    for c in range(nn):
        last = last + inv_l2m * grad_mu[c] * comps[nn].dx(c)
    out.append(last)

    mult = zeroth_order_matrix(geo, lame)
    for j in range(n):
        for k in range(n):
            out[j] = out[j] + mult[j, k] * comps[k]
    return JetMatrix.column(ctx, out)


def apply_decomposition(u: JetMatrix, metric: MetricJet,
                        lame: LameJet) -> JetMatrix:
    """Normal second derivative plus the first/zeroth-order blocks.

    Multiplying ``lame_apply`` by the inverse leading coefficient must
    reproduce this componentwise; the tests enforce it on random scenes.
    """
    _check_vector(u)
    geo = prepare(metric)
    du = u.dn()
    return du.dn() + apply_B(du, geo, lame) + apply_C(u, geo, lame)
