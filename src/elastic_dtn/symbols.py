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

Each rule of the recursion is written once.  Every right-hand side E_m is
one composition sum (:func:`build_E`), whose left factors are the levels
q_j with p_1 = q_1 - b_1 in place of q_1; every boundary level is
p_d = lead q_d - T_d (:func:`p_level`), with T the symbol of the
tangential part of the traction.
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
    _JetArray,
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
    xi_down: _JetArray  # the covector xi_a, for every tangential a
    xi_up: _JetArray  # the raised covector g^{ab} xi_b
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
    """Factorization data from the tangential block g^{ab} of the inverse
    metric."""
    nn = chart.dimension - 1
    lam, mu = lame.lam, lame.mu

    down = stack([Jet.xi_component(chart, a) for a in range(nn)])
    up = (ginv @ down.reshape(nn, 1)).reshape(nn)
    norm_sq = (up.reshape(1, nn) @ down.reshape(nn, 1))[0, 0]
    norm = sqrt(norm_sq)
    inv_norm = reciprocal(norm)
    s2 = (lam + mu) * lame.inv_l3m

    outer = (inv_norm * up).reshape(nn, 1) * down.reshape(1, nn)
    corner = (-norm).reshape(1, 1)
    f1 = JetMatrix.block(chart, [[outer, (1j * up).reshape(nn, 1)],
                                 [(1j * down).reshape(1, nn), corner]])
    tangential = -1j * (lam + 2 * mu) * lame.inv_mu
    normal = -1j * mu * lame.inv_l2m
    f2 = JetMatrix.block(chart, [[outer, (tangential * up).reshape(nn, 1)],
                                 [(normal * down).reshape(1, nn), corner]])
    return Factorization(chart, lame, down, up, norm_sq, norm, inv_norm,
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
    fac = factorization(geo.ginv[:nn, :nn], lame, chart)
    up, down = fac.xi_up, fac.xi_down

    # shared left-to-right prefixes, computed once (see factorization)
    ratio = 1j * (lam + mu) * inv_mu
    ratio_up = ratio * up

    # first-order block, degree-one part
    b1 = JetMatrix.block(chart, [
        [JetMatrix.zeros(chart, nn, nn), ratio_up.reshape(nn, 1)],
        [(1j * (lam + mu) * inv_l2m * down).reshape(1, nn),
         JetMatrix.zeros(chart, 1, 1)]])

    # tangential block, degree-one part; every sum keeps the order of the
    # entry-by-entry formula, whose last bits symbols documents carry
    # xi^a trace_a and d_a xi^a, added in turn
    div = stack([up[a].dx(a) for a in range(nn)])
    scalar = stack([up * trace[:nn], div], axis=1).reshape(2 * nn).sum()
    xi_grad_mu = (down * grad_mu).sum()
    top = JetMatrix.block(chart, [[
        ratio_up.reshape(nn, 1) * trace[:nn].reshape(1, nn),
        (ratio * trace[nn] * up).reshape(nn, 1)]])
    for c in range(nn):
        top = top + 2j * up[c] * gamma[:nn, c]
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
    """Memoized tangential derivatives of the composition factors: in xi of
    the left factors p_j, in x of the levels q_k.

    p_j is q_j, except p_1 = q_1 - b_1, formed once here.
    """

    def __init__(self, levels: dict, b1: JetMatrix):
        self.levels = levels
        self.left_principal = levels[1] - b1
        self.memo = {}

    def get(self, degree: int, axis: str, J: tuple) -> JetMatrix:
        key = (degree, axis, J)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if not any(J):
            result = (self.left_principal if axis == "xi" and degree == 1
                      else self.levels[degree])
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

        E_m = b0 q_{-m} + dn q_{-m} - c_{-m}
              - sum (-i)^|J| / J! (d_xi^J p_j) (d_x^J q_k)

    summed over -m <= j, k <= 1 and |J| = j + k + m >= 0, with c_{-m} = c1,
    c0 at m = -1, 0 and zero below, and p_j = q_j except p_1 = q_1 - b_1.
    b_1 is linear in xi, so its derivatives of order 2 and above vanish, and
    its |J| = 0 term is the -b_1 X of :func:`solve_q`.

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
    cache = _cache if _cache is not None else _DerivativeCache(levels, ctx.b1)
    nn = ctx.chart.dimension - 1
    try:
        qm = levels[-m]
        out = ctx.b0 @ qm + qm.dn()
        if m < 1:
            out = out - (ctx.c1 if m == -1 else ctx.c0)
        for j in range(-m, 2):
            for k in range(-m, 2):
                order = j + k + m
                if order < 0:
                    continue
                phase = (-1j) ** order
                for J in _multi_indices(nn, order):
                    coeff = phase / math.prod(map(math.factorial, J))
                    out = out - coeff * (cache.get(j, "xi", J)
                                         @ cache.get(k, "x", J))
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


def q_levels(ctx: SymbolContext, depth: int) -> SymbolLevels:
    """Factor levels q_1 down to q_{-depth}.

    On a chart trusted to degree A, the level of degree d is trusted to
    A - 1 + d, so every depth up to A - 1 is reached.
    """
    levels = {1: q1(ctx)}
    cache = _DerivativeCache(levels, ctx.b1)
    for m in range(-1, depth):
        levels[-m - 1] = solve_q(build_E(m, levels, ctx, _cache=cache), ctx)
    return SymbolLevels("q", levels)


def p_level(ctx: SymbolContext, q: SymbolLevels, degree: int) -> JetMatrix:
    """Boundary symbol level of one degree from the factor levels.

    p_d = lead q_d - T_d, with T the symbol of the tangential part of the
    traction: T_1 = [[0, i mu xi^a], [i lambda xi_b, 0]], T_0 is the
    connection-trace row lambda Gamma^c_{cb} in the normal component, and
    T_d = 0 for d < 0.  Degree d needs q_d.
    """
    out = ctx.lead @ q.level(degree)
    if degree < 0:
        return out
    chart, lam, mu = ctx.chart, ctx.lame.lam, ctx.lame.mu
    n = chart.dimension
    nn = n - 1
    if degree == 1:
        traction = JetMatrix.block(chart, [
            [JetMatrix.zeros(chart, nn, nn), (1j * mu * ctx.xi_up).reshape(nn, 1)],
            [(1j * lam * ctx.xi_down).reshape(1, nn),
             JetMatrix.zeros(chart, 1, 1)]])
    else:
        traction = JetMatrix.block(chart, [[JetMatrix.zeros(chart, nn, n)],
                                           [(lam * ctx.geo.trace).reshape(1, n)]])
    return out - traction


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
