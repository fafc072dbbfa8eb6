"""Graded symbol levels of the elastic displacement-to-traction operator.

Everything lives on one chart in boundary normal coordinates.  The symbol
of the tangential part of the operator splits into homogeneous levels
(b_1, b_0 for the first-order block; c_2, c_1, c_0 for the rest), the
half-space factorization produces the recursion for the factor levels
q_1, q_0, q_{-1}, ..., and the boundary operator's levels p_1, p_0, ...
follow.  Each level is a classical symbol, positively homogeneous in the
covector, and is stored structurally so: as its jet on the hyperplane
through the base covector xi0 orthogonal to it, with its homogeneity
degree (see :mod:`elastic_dtn.jets`).  The level of degree d has degree d;
derivatives in xi follow from Euler's relation.

The levels b_1, c_2 and c_1 are transcribed here as functions of the
cotangent variable, independently of the differential-operator
transcription in :mod:`elastic_dtn.geometry`; the plane-wave consistency
report ties the two together.  The multiplier levels b_0 and c_0 are
taken from :mod:`elastic_dtn.geometry`, where the operator identity
checks them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .geometry import (
    LameJet,
    MetricJet,
    _Geometry,
    leading_coefficient,
    normal_multiplier_matrix,
    prepare,
    zeroth_order_matrix,
)
from .jets import (
    AccuracyExhausted,
    Jet,
    JetContext,
    JetMatrix,
    reciprocal,
    sqrt,
    stack,
)


@dataclass(frozen=True)
class Factorization:
    """Cotangent norm and rank-structured matrices of the factorization.

    This is all that the level solver, its inverse and layer peeling read.
    """

    chart: JetContext
    lame: LameJet
    xi_down: tuple
    xi_up: tuple
    norm_sq: Jet
    norm: Jet
    inv_norm: Jet
    s2: Jet
    f1: JetMatrix
    f2: JetMatrix


@dataclass(frozen=True)
class SymbolContext(Factorization):
    """Factorization data plus every other jet the level recursion consumes.

    ``c2`` and ``c0`` are built on first read: only the checks read c2, and
    a recursion to depth 0 never reads c0.
    """

    geo: _Geometry
    lead: JetMatrix
    b1: JetMatrix
    b0: JetMatrix
    c1: JetMatrix

    @functools.cached_property
    def c2(self) -> JetMatrix:
        """Tangential block, degree-two part."""
        chart, lame = self.chart, self.lame
        nn = chart.dimension - 1
        lam, mu = lame.lam, lame.mu
        xi_down, xi_up, norm_sq = self.xi_down, self.xi_up, self.norm_sq
        zero = Jet.zero(chart)
        c2 = []
        for a in range(nn):
            row = [-(lam + mu) * lame.inv_mu * xi_up[a] * xi_down[b]
                   for b in range(nn)]
            row[a] = row[a] - norm_sq
            c2.append(row + [zero])
        c2.append([zero] * nn + [-mu * lame.inv_l2m * norm_sq])
        return JetMatrix(chart, c2)

    @functools.cached_property
    def c0(self) -> JetMatrix:
        """Tangential block, degree-zero part."""
        return zeroth_order_matrix(self.geo, self.lame)

    @functools.cached_property
    def solve_factors(self) -> tuple:
        """The scalar factors of :func:`solve_q`: 1/(2r), s2/(4r^2) and
        s2^2/(4r^3), with r the cotangent norm."""
        inv_norm, s2 = self.inv_norm, self.s2
        return (0.5 * inv_norm,
                0.25 * s2 * inv_norm * inv_norm,
                0.25 * s2 * s2 * inv_norm * inv_norm * inv_norm)


@dataclass(frozen=True)
class SymbolLevels:
    """Homogeneity-graded symbol levels, contiguous from the top degree."""

    kind: str  # "q" or "p"
    levels: dict

    def __post_init__(self):
        if self.kind not in ("q", "p"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        degrees = sorted(self.levels, reverse=True)
        if not degrees:
            raise ValueError("symbol levels are empty")
        if degrees[0] != 1 or degrees != list(range(1, 1 - len(degrees), -1)):
            raise ValueError(f"levels must be contiguous from degree 1, got {degrees}")

    def level(self, degree: int) -> JetMatrix:
        try:
            return self.levels[degree]
        except KeyError:
            raise KeyError(
                f"symbol level of degree {degree} not present "
                f"(have {sorted(self.levels, reverse=True)})") from None

    @property
    def min_degree(self) -> int:
        return min(self.levels)

    @property
    def depth(self) -> int:
        """Largest M with the degree -M level present (-1: principal only)."""
        return -self.min_degree


def factorization(ginv: JetMatrix, lame: LameJet,
                  chart: JetContext) -> Factorization:
    """Factorization data from the inverse metric (its tangential block)."""
    nn = chart.dimension - 1
    lam, mu = lame.lam, lame.mu

    xi_down = tuple(Jet.xi_component(chart, a) for a in range(nn))
    xi_up = tuple(
        sum((ginv[a, b] * xi_down[b] for b in range(1, nn)),
            ginv[a, 0] * xi_down[0])
        for a in range(nn))
    norm_sq = sum((xi_up[a] * xi_down[a] for a in range(1, nn)),
                  xi_up[0] * xi_down[0])
    norm = sqrt(norm_sq)
    inv_norm = reciprocal(norm)
    s2 = (lam + mu) * lame.inv_l3m

    # shared left-to-right prefixes are computed once: the same products in
    # the same order, so every bit stays
    scaled_up = [inv_norm * xi_up[a] for a in range(nn)]
    outer = [[scaled_up[a] * xi_down[b] for b in range(nn)] for a in range(nn)]
    f1 = JetMatrix(chart, [outer[a] + [1j * xi_up[a]] for a in range(nn)]
                   + [[1j * x for x in xi_down] + [-norm]])
    tangential = -1j * (lam + 2 * mu) * lame.inv_mu
    normal = -1j * mu * lame.inv_l2m
    f2 = JetMatrix(chart, [outer[a] + [tangential * xi_up[a]] for a in range(nn)]
                   + [[normal * x for x in xi_down] + [-norm]])
    return Factorization(chart, lame, xi_down, xi_up, norm_sq, norm, inv_norm,
                         s2, f1, f2)


def build_context(metric: MetricJet, lame: LameJet,
                  chart: JetContext) -> SymbolContext:
    """Assemble every symbol-side jet for one admissible chart."""
    nn = chart.dimension - 1
    geo = prepare(metric)
    gamma, trace = geo.gamma, geo.trace
    lam, mu = lame.lam, lame.mu
    inv_mu, inv_l2m = lame.inv_mu, lame.inv_l2m
    grad_lam = geo.raised_gradient(lam)
    grad_mu = geo.raised_gradient(mu)
    fac = factorization(geo.ginv, lame, chart)
    xi_down, xi_up = fac.xi_down, fac.xi_up

    zero = Jet.zero(chart)
    # shared left-to-right prefixes, computed once (see factorization)
    ratio = 1j * (lam + mu) * inv_mu
    ratio_up = [ratio * xi_up[a] for a in range(nn)]

    # first-order block, degree-one part
    b1 = JetMatrix(chart, [[zero] * nn + [ratio_up[a]] for a in range(nn)]
                   + [[1j * (lam + mu) * inv_l2m * x for x in xi_down] + [zero]])

    # tangential block, degree-one part; every sum keeps the order of the
    # entry-by-entry formula, whose last bits symbols documents carry
    up, down = stack(xi_up), stack(xi_down)
    # xi^a trace_a and d_a xi^a, added in turn
    div = stack([xi_up[a].dx(a) for a in range(nn)])
    scalar = stack([up * trace[:nn], div], axis=1).reshape(2 * nn).sum()
    xi_grad_mu = (down * grad_mu).sum()
    top = JetMatrix.block(chart, [[
        stack(ratio_up).reshape(nn, 1) * trace[:nn].reshape(1, nn),
        (ratio * trace[nn] * up).reshape(nn, 1)]])
    for c in range(nn):
        top = top + 2j * xi_up[c] * gamma[:nn, c]
    dmu = stack([mu.dx(b) for b in range(nn)])
    tangential = top[:, :nn] + 1j * inv_mu * (
        down.reshape(1, nn) * grad_lam.reshape(nn, 1)
        + up.reshape(nn, 1) * dmu.reshape(1, nn))
    eye = JetMatrix.identity(chart, nn)
    tangential = tangential + eye * (1j * scalar) \
        + eye * (1j * inv_mu * xi_grad_mu)
    shear = 2j * mu * inv_l2m * up
    c1 = JetMatrix.block(chart, [
        [tangential, top[:, nn:] + (1j * inv_mu * mu.dn() * up).reshape(nn, 1)],
        [shear.reshape(1, nn) @ gamma[nn, :nn, :nn]
         + 1j * inv_l2m * lam.dn() * down.reshape(1, nn),
         (1j * mu * inv_l2m * scalar
          + 1j * inv_l2m * xi_grad_mu).reshape(1, 1)]])

    return SymbolContext(
        **vars(fac), geo=geo, lead=leading_coefficient(lame, chart),
        b1=b1, b0=normal_multiplier_matrix(geo, lame), c1=c1)


def q1(ctx: SymbolContext) -> JetMatrix:
    """Principal level of the half-space factor."""
    n = ctx.chart.dimension
    return JetMatrix.identity(ctx.chart, n) * ctx.norm + ctx.f1 * ctx.s2


# -- the level recursion ---------------------------------------------------


class _DerivativeCache:
    """Memoized tangential derivatives of level matrices."""

    def __init__(self, levels: dict):
        self.levels = levels
        self.memo = {}

    def get(self, degree: int, axis: str, J: tuple) -> JetMatrix:
        key = (degree, axis, J)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if not any(J):
            result = self.levels[degree]
        else:
            a = next(i for i, e in enumerate(J) if e)
            lowered = J[:a] + (J[a] - 1,) + J[a + 1:]
            parent = self.get(degree, axis, lowered)
            result = parent.dxi(a) if axis == "xi" else parent.dx(a)
        self.memo[key] = result
        return result


def _multi_indices(nvars: int, total: int):
    if total == 0:
        yield (0,) * nvars
        return
    for combo in combinations_with_replacement(range(nvars), total):
        J = [0] * nvars
        for idx in combo:
            J[idx] += 1
        yield tuple(J)


def build_E(m: int, q: "SymbolLevels | dict", ctx: SymbolContext,
            _cache: _DerivativeCache | None = None) -> JetMatrix:
    """Right-hand side driving the level of degree -(m+1); defined for m >= -1.

    Requires the levels q_1 .. q_{-m} (with enough accuracy for every
    tangential derivative pairing of combined order m + j + k).
    """
    if m < -1:
        raise ValueError("m must be >= -1")
    levels = q.levels if isinstance(q, SymbolLevels) else q
    for degree in range(1, -m - 1, -1):
        if degree not in levels:
            raise KeyError(f"missing level of degree {degree} while building "
                           f"the degree-{-m - 1} right-hand side")
    cache = _cache if _cache is not None else _DerivativeCache(levels)
    nn = ctx.chart.dimension - 1

    def dxi(degree, J):
        return cache.get(degree, "xi", J)

    def dx(degree, J):
        return cache.get(degree, "x", J)

    def unit(a):
        return tuple(1 if i == a else 0 for i in range(nn))

    try:
        if m == -1:
            qq = levels[1]
            out = ctx.b0 @ qq + qq.partial(ctx.chart.x_index(ctx.chart.dimension - 1))
            out = out - ctx.c1
            for a in range(nn):
                out = out + 1j * ((dxi(1, unit(a)) - ctx.b1.dxi(a)) @ dx(1, unit(a)))
            return out
        if m == 0:
            q0 = levels[0]
            out = ctx.b0 @ q0 + q0.partial(ctx.chart.x_index(ctx.chart.dimension - 1))
            out = out - ctx.c0 - q0 @ q0
            for a in range(nn):
                out = out + 1j * ((dxi(1, unit(a)) - ctx.b1.dxi(a)) @ dx(0, unit(a)))
                out = out + 1j * (dxi(0, unit(a)) @ dx(1, unit(a)))
            for a in range(nn):
                for b in range(nn):
                    Ja = unit(a)
                    Jab = tuple(x + y for x, y in zip(Ja, unit(b)))
                    out = out + 0.5 * (dxi(1, Jab) @ dx(1, Jab))
            return out
        qm = levels[-m]
        out = ctx.b0 @ qm + qm.partial(ctx.chart.x_index(ctx.chart.dimension - 1))
        for a in range(nn):
            out = out - 1j * (ctx.b1.dxi(a) @ dx(-m, unit(a)))
        for j in range(-m, 2):
            for k in range(-m, 2):
                order = j + k + m
                if order < 0:
                    continue
                phase = (-1j) ** order
                for J in _multi_indices(nn, order):
                    coeff = phase / math.prod(map(math.factorial, J))
                    out = out - coeff * (dxi(j, J) @ dx(k, J))
        return out
    except AccuracyExhausted as exc:
        raise AccuracyExhausted(
            f"accuracy exhausted while building the degree-{-m - 1} "
            f"right-hand side: {exc}") from exc


def solve_q(E: JetMatrix, ctx: SymbolContext) -> JetMatrix:
    """Solve q1 X + X q1 - b1 X = E for the next level down.

    Closed form: E/(2r) - s2 (F2 E + E F1)/(4 r^2) + s2^2 F2 E F1/(4 r^3)
    with r the cotangent norm.  (Expanding with the nilpotency of F1, F2
    and b1 = s2 (F1 - F2) confirms this is the exact inverse of the map.)
    """
    half, quarter_sq, quarter_cu = ctx.solve_factors
    f2e = ctx.f2 @ E
    ef1 = E @ ctx.f1
    f2ef1 = f2e @ ctx.f1
    return E * half - (f2e + ef1) * quarter_sq + f2ef1 * quarter_cu


def p1_matrix(ctx: SymbolContext) -> JetMatrix:
    """Principal boundary symbol in closed form."""
    chart = ctx.chart
    nn = chart.dimension - 1
    lam, mu = ctx.lame.lam, ctx.lame.mu
    inv_l3m = ctx.lame.inv_l3m
    rows = []
    for a in range(nn):
        # the shared prefix is computed once, with the same bits
        prefix = mu * (lam + mu) * inv_l3m * ctx.inv_norm * ctx.xi_up[a]
        row = [prefix * x for x in ctx.xi_down]
        row[a] = row[a] + mu * ctx.norm
        rows.append(row + [-2j * mu * mu * inv_l3m * ctx.xi_up[a]])
    rows.append([2j * mu * mu * inv_l3m * x for x in ctx.xi_down]
                + [2 * mu * (lam + 2 * mu) * inv_l3m * ctx.norm])
    return JetMatrix(chart, rows)


def _gamma_correction(ctx: SymbolContext) -> JetMatrix:
    """Connection-trace correction entering the degree-zero boundary level."""
    n = ctx.chart.dimension
    row = (ctx.lame.lam * ctx.geo.trace).reshape(1, n)
    return JetMatrix.block(ctx.chart,
                           [[JetMatrix.zeros(ctx.chart, n - 1, n)], [row]])


def q_levels(ctx: SymbolContext, depth: int) -> SymbolLevels:
    """Factor levels q_1 down to q_{-depth}.

    On a chart trusted to degree A, the level of degree d is trusted to
    A - 1 + d, so every depth up to A - 1 is reached.
    """
    levels = {1: q1(ctx)}
    cache = _DerivativeCache(levels)
    for m in range(-1, depth):
        levels[-m - 1] = solve_q(build_E(m, levels, ctx, _cache=cache), ctx)
    return SymbolLevels("q", levels)


def p_level(ctx: SymbolContext, q: SymbolLevels, degree: int) -> JetMatrix:
    """Boundary symbol level of one degree from the factor levels.

    p_1 is closed-form, p_0 = lead q_0 - (connection-trace correction),
    and p_{-k} = lead q_{-k}; degree d <= 0 needs q_d.
    """
    if degree == 1:
        return p1_matrix(ctx)
    out = ctx.lead @ q.level(degree)
    if degree == 0:
        out = out - _gamma_correction(ctx)
    return out


def dtn_symbols(ctx: SymbolContext, M: int) -> SymbolLevels:
    """Boundary symbol levels p_1 .. p_{-M}.

    Requires truncation order K >= M + 3 so the recursion keeps enough
    trusted degrees: the level of degree d is trusted to K - 1 + d.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    K = ctx.chart.truncation_order
    if K < M + 3:
        raise AccuracyExhausted(
            f"truncation order {K} supports at most depth {K - 3}; "
            f"depth {M} was requested (need K >= M + 3)")
    q = q_levels(ctx, depth=M)
    return SymbolLevels("p", {degree: p_level(ctx, q, degree)
                              for degree in q.levels})


# -- plane-wave consistency -------------------------------------------------


def _plane_wave(chart: JetContext) -> Jet:
    """exp(i <x', xi0>) as a truncated jet in the tangential x-variables."""
    coeffs = {}
    n = chart.dimension
    for mono in chart.monomials:
        if any(mono[n:]) or mono[n - 1]:
            continue
        value = 1.0 + 0.0j
        for a in range(n - 1):
            e = mono[a]
            if e:
                value *= (1j * chart.base_covector[a]) ** e / math.factorial(e)
        coeffs[mono] = value
    return Jet.from_coefficients(chart, coeffs)


def plane_wave_consistency(ctx: SymbolContext) -> dict:
    """Compare the symbol matrices against the differential operators.

    Applies the first-order and tangential operator blocks to plane waves
    v * exp(i <x', xi0>) for basis vectors v and checks the base-point
    values against (b1 + b0) v and (c2 + c1 + c0) v at xi0.  Exact for
    differential operators up to roundoff.
    """
    from .geometry import apply_B, apply_C

    chart = ctx.chart
    n = chart.dimension
    geo, lame = ctx.geo, ctx.lame
    wave = _plane_wave(chart)
    # the levels have different degrees, so their values at xi0 are added
    b_total = ctx.b1.coeffs[..., 0] + ctx.b0.coeffs[..., 0]
    c_total = ctx.c2.coeffs[..., 0] + ctx.c1.coeffs[..., 0] + ctx.c0.coeffs[..., 0]
    b_residual = 0.0
    c_residual = 0.0
    for j in range(n):
        field = JetMatrix.column(
            chart, [wave if k == j else Jet.zero(chart) for k in range(n)])
        op_b = apply_B(field, geo, lame)
        op_c = apply_C(field, geo, lame)
        for k in range(n):
            b_residual = max(b_residual, abs(op_b[k, 0].constant_term
                                             - b_total[k, j]))
            c_residual = max(c_residual, abs(op_c[k, 0].constant_term
                                             - c_total[k, j]))
    return {
        "b_residual": b_residual,
        "c_residual": c_residual,
        "max_residual": max(b_residual, c_residual),
    }
