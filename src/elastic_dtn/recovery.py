"""Layer-peeling recovery of the boundary metric from observed symbol levels.

Order zero inverts the (n,n) entry of the principal level for the
cotangent norm, whose exact Hessian in the covector is the inverse
tangential metric.  Each higher order m then (i) extends the data
recovered so far to a reference chart with zero normal derivatives of
order m and above, (ii) reruns the forward engine on the reference for
the level of degree 1-m alone, trusted only to the degrees peeling reads,
(iii) differences the observed and reference levels of degree 1-m, so
every remainder term depending only on lower-order data cancels exactly,
and (iv) reads the order-m normal derivative off the quadratic form left
behind.  All steps work on boundary restrictions and carry full
tangential jets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import LameJet, MetricJet, leading_coefficient_inverse
from .jets import (
    AccuracyExhausted,
    Jet,
    JetContext,
    JetMatrix,
    mat_inverse,
    reciprocal,
)
from .scenes import DEFAULT_TOLERANCES, SceneError
from .symbols import (
    Factorization,
    SymbolLevels,
    build_context,
    factorization,
    p_level,
    q_levels,
)

QUADRATICITY_TOL = DEFAULT_TOLERANCES["quadraticity"]
IMAGINARY_TOL = DEFAULT_TOLERANCES["imaginary"]


class ConsistencyError(Exception):
    """Observed data failed an exactness gate; maps to CLI exit code 4."""


@dataclass(frozen=True)
class ObservedSymbols:
    """Input of the inverse direction: levels of kind "p" plus known data."""

    p: SymbolLevels
    lame: LameJet
    chart: JetContext

    def __post_init__(self):
        if self.p.kind != "p":
            raise SceneError(f"observed symbols must have kind 'p', got {self.p.kind!r}")
        top = self.p.level(1)
        if not top.context.compatible_with(self.chart):
            raise SceneError("observed levels and chart disagree")
        n = self.chart.dimension
        corner = top[n - 1, n - 1].constant_term
        if not (corner.real > 0 and abs(corner.imag) <= 1e-9 * max(1.0, corner.real)):
            raise SceneError(
                f"principal level's (n,n) entry must have a positive real "
                f"constant term, got {corner}")

    def require_depth(self, M: int) -> None:
        if self.p.min_degree > 1 - M:
            raise SceneError(
                f"recovering order {M} needs the level of degree {1 - M}; "
                f"observed levels stop at degree {self.p.min_degree}")


@dataclass
class RecoveredBoundaryData:
    """Inverse tangential metric and its normal derivatives, order by order."""

    context: JetContext
    g_inv: JetMatrix
    normal_derivs: list = field(default_factory=list)  # of JetMatrix
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        nn = self.context.dimension - 1
        g_inv = self.g_inv
        if (g_inv.rows, g_inv.cols) != (nn, nn):
            raise ValueError(f"recovered block must be {nn}x{nn}")
        if not g_inv.allclose(g_inv.transpose(), tol=1e-10):
            raise ValueError("recovered block must be symmetric")
        if not np.min(np.linalg.eigvalsh(g_inv.coeffs[:, :, 0].real)) > 0:
            raise ValueError("recovered block must be positive definite "
                             "at the base point")


def _realify(block: JetMatrix, tol: float, where: str) -> tuple[JetMatrix, float]:
    """The real part of ``block``, which has no cotangent content, on the
    spatial chart, and its largest imaginary coefficient.

    The first entry over ``tol``, in row-major order, fails the gate.
    """
    worst = np.max(np.abs(block.coeffs.imag), axis=-1)
    failing = np.argwhere(~(worst <= tol))  # NaN fails every gate
    if len(failing):
        a, b = failing[0]
        raise ConsistencyError(
            f"{where} ({a},{b}): imaginary residual {worst[a, b]:.3g} "
            f"exceeds {tol:g}")
    return block.real_part().spatial_part(), float(worst.max())


def extract_quadratic(Q: Jet, tol: float = QUADRATICITY_TOL):
    """Read a quadratic form in the covector off a scalar jet.

    Returns the symmetric coefficient block as a matrix of jets on the
    spatial chart (the exact half-Hessian in the covector, with no
    cotangent content left) together with a diagnostics dict.  A form has
    homogeneity degree 2, and the residual after rebuilding it must stay
    below ``tol``, otherwise the input was not a quadratic form; for n = 2
    every jet of degree 2 is one.
    """
    ctx = Q.context
    if Q.accuracy < 2:
        raise AccuracyExhausted("quadratic extraction needs accuracy >= 2")
    if Q.degree != 2 and Q.coeffs.any():
        raise ConsistencyError(
            f"observed level inconsistent with quadratic-form model "
            f"(homogeneity degree {Q.degree}, not 2)")
    nn = ctx.dimension - 1
    block = [[None] * nn for _ in range(nn)]
    for a in range(nn):
        for b in range(a, nn):
            entry = (Q.dxi(a).dxi(b) * 0.5).spatial_part()
            block[a][b] = entry
            block[b][a] = entry
    xi = [Jet.xi_component(ctx, a) for a in range(nn)]
    rebuilt = Jet.zero(ctx)
    for a in range(nn):
        for b in range(nn):
            rebuilt = rebuilt + block[a][b] * xi[a] * xi[b]
    residual = (Q - rebuilt).max_abs()
    if not residual <= tol:
        raise ConsistencyError(
            f"observed level inconsistent with quadratic-form model "
            f"(residual {residual:.3g} > {tol:g})")
    return JetMatrix(ctx.spatial, block), {"quadraticity": residual}


def extract_quadratic_sampled(Q: Jet):
    """Polarization cross-check: sample the form on covector pairs.

    A sample v scales onto the hyperplane of the chart only when
    v . xi0 != 0: then Q(v) = s^2 Q(xi0 + E t) with s = v . xi0 / |xi0|^2
    and t = E^T v / s.  So the form is sampled in the basis u_0 = xi0/|xi0|,
    u_k = u_0 + E_k, on which every sample and every pairwise sum has
    v . xi0 >= |xi0|, polarized there, and brought back to the coordinate
    basis.  Returns the coefficient block as x-jets.  Less precise than the
    Hessian route and used only as an optional diagnostic.
    """
    ctx = Q.context
    nn = ctx.dimension - 1
    xi0 = np.array(ctx.base_covector)
    basis = ctx.hyperplane_basis
    u0 = xi0 / np.linalg.norm(xi0)
    samples = np.column_stack([u0] + [u0 + basis[:, k] for k in range(nn - 1)])

    def value_at(covector):
        s = covector @ xi0 / (xi0 @ xi0)
        return Q.substitute_xi(basis.T @ covector / s) * s ** Q.degree

    diag = [value_at(samples[:, a]) for a in range(nn)]
    form = [[None] * nn for _ in range(nn)]
    for a in range(nn):
        form[a][a] = diag[a]
        for b in range(a + 1, nn):
            both = value_at(samples[:, a] + samples[:, b])
            form[a][b] = form[b][a] = (both - diag[a] - diag[b]) * 0.5
    # Q(v) = v^T B v: the block in the u-basis is U^T B U
    form = JetMatrix(ctx, form)
    back = np.linalg.inv(samples)
    return JetMatrix._wrap(ctx, np.einsum("ia,ijk,jb->abk", back, form.coeffs,
                                          back), form.accuracy, 0)


def _principal_norm(obs: ObservedSymbols) -> Jet:
    """Cotangent norm read off the (n,n) entry of the principal level."""
    n = obs.chart.dimension
    lam = obs.lame.lam.at_boundary()
    mu = obs.lame.mu.at_boundary()
    corner = obs.p.level(1)[n - 1, n - 1].at_boundary()
    return (lam + 3 * mu) * corner * reciprocal(2 * (mu * (lam + 2 * mu)))


def recover_order0(obs: ObservedSymbols, quadraticity_tol: float = QUADRATICITY_TOL,
                   imaginary_tol: float = IMAGINARY_TOL):
    """Boundary inverse metric (with tangential jets) from the principal level."""
    norm_rec = _principal_norm(obs)
    if not norm_rec.constant_term.real > 0:
        raise ConsistencyError("recovered cotangent norm is not positive")
    norm_sq = norm_rec * norm_rec
    block, diag = extract_quadratic(norm_sq, tol=quadraticity_tol)
    g_inv, diag["imaginary"] = _realify(block, imaginary_tol,
                                        "inverse metric entry")
    if not np.min(np.linalg.eigvalsh(g_inv.coeffs[:, :, 0].real)) > 0:
        raise ConsistencyError("recovered inverse metric is not positive definite")
    return g_inv, diag


def lin_inverse(X: JetMatrix, ctx: Factorization) -> JetMatrix:
    """Map a level back to the right-hand side it solves.

    This is the exact inverse of :func:`elastic_dtn.symbols.solve_q`:
    X -> 2 r X + s2 (F2 X + X F1), which by the nilpotency of F1 and F2
    inverts the closed-form solution in both orders of composition.
    """
    return X * (2 * ctx.norm) + (ctx.f2 @ X + X @ ctx.f1) * ctx.s2


def _reference_metric(chart: JetContext, partial: RecoveredBoundaryData,
                      order: int, accuracy: int) -> MetricJet:
    """Chart matching recovered data below ``order``, zero at and above it.

    Its jets are trusted to degree ``accuracy``: zero extension beyond the
    trusted degree of the recovered data turns it into the exact polynomial
    that defines the reference chart.  It is built on the spatial chart.
    """
    spatial = chart.spatial
    ginv = partial.g_inv.with_accuracy(accuracy)
    for j in range(1, order):
        exps = [0] * spatial.nvars
        exps[spatial.normal_index] = j
        weight = Jet.from_coefficients(spatial,
                                       {tuple(exps): 1.0 / math.factorial(j)})
        deriv = partial.normal_derivs[j - 1]
        ginv = ginv + deriv.with_accuracy(accuracy) * weight
    return MetricJet(spatial, mat_inverse(ginv).real_part())


@dataclass(frozen=True)
class BoundaryFactorization(Factorization):
    """Boundary factorization plus the order-0 tangential metric g_ab,
    the raw inverse of the recovered order-0 block."""

    g: JetMatrix

    @functools.cached_property
    def peeling_scale(self) -> Jet:
        """The factor that turns the residual entry into the quadratic form:
        (lambda+3mu)^2 (lambda+2mu)/mu^2."""
        lam, mu = self.lame.lam, self.lame.mu
        return (lam + 3 * mu) * (lam + 3 * mu) * reciprocal(mu * mu) \
            * (lam + 2 * mu)

    @functools.cached_property
    def trace_denominator(self) -> Jet:
        """(n-1)(2 lambda + 5 mu) - (lambda + 2 mu), which the trace of the
        recovered form is divided by."""
        lam, mu = self.lame.lam, self.lame.mu
        return (self.chart.dimension - 1) * (2 * lam + 5 * mu) - (lam + 2 * mu)

    @functools.cached_property
    def inv_trace_denominator(self) -> Jet:
        return reciprocal(self.trace_denominator)


def boundary_factorization(obs: ObservedSymbols,
                           g_inv: JetMatrix) -> BoundaryFactorization:
    """Factorization data on the boundary, from the order-0 inverse metric.

    Every peeling order reads the same data, so it is built once.  The
    full metric is block-diagonal with a unit normal entry, so the
    tangential block of its inverse, which the factorization reads, is
    ``g_inv`` itself.
    """
    lame_b = LameJet(obs.lame.lam.at_boundary(), obs.lame.mu.at_boundary())
    fac = factorization(g_inv, lame_b, obs.chart)
    return BoundaryFactorization(**vars(fac), g=mat_inverse(g_inv))


def _peeling_trust(partial: RecoveredBoundaryData, m: int) -> int:
    """Tangential degree up to which order-m peeling is law-exact.

    Data of order j is trusted to its stored accuracy, and the recursion
    applies up to m - j tangential derivatives to it on the way to the
    level of degree 1 - m.
    """
    spans = [block.accuracy
             for block in [partial.g_inv, *partial.normal_derivs[: m - 1]]]
    return min(spans[j] - (m - j) for j in range(len(spans)))


def _reference_level(obs: ObservedSymbols, partial: RecoveredBoundaryData,
                     m: int, trust: int) -> JetMatrix:
    """Level of degree 1 - m of the reference forward run, on the boundary.

    That level, from a chart trusted to degree A, is trusted to A - m, and
    peeling reads it only to degree trust + 2; the reference chart is
    trusted to no more.  Since A >= m + 2, the recursion reaches that level.
    """
    chart = obs.chart
    accuracy = min(chart.truncation_order, trust + m + 2)
    reference = _reference_metric(chart, partial, m, accuracy)
    ctx_ref = build_context(reference, obs.lame, chart)
    return p_level(ctx_ref, q_levels(ctx_ref, m - 1), 1 - m).at_boundary()


def recover_normal_derivative(m: int, obs: ObservedSymbols,
                              partial: RecoveredBoundaryData,
                              boundary: BoundaryFactorization,
                              quadraticity_tol: float = QUADRATICITY_TOL,
                              imaginary_tol: float = IMAGINARY_TOL):
    """Order-m normal derivative of the inverse metric by peeling.

    Needs the observed level of degree 1-m, all recovered orders below m
    inside ``partial``, and ``boundary_factorization`` of their order 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(partial.normal_derivs) < m - 1:
        raise ValueError(f"recovering order {m} needs orders 1..{m - 1} first")
    obs.require_depth(m)
    chart = obs.chart
    n = chart.dimension
    nn = n - 1

    # Peeling is law-exact only below a tangential-degree threshold; the
    # form is capped there before extraction.
    trust = _peeling_trust(partial, m)
    if trust < 0:
        raise AccuracyExhausted(
            f"peeling trust exhausted at order {m} (tangential span {trust})")

    level_obs = obs.p.level(1 - m).at_boundary()
    delta = level_obs - _reference_level(obs, partial, m, trust)

    # With A the leading coefficient, one application of lin_inverse maps
    # A^-1 delta back to its right-hand side; each further application
    # converts the matrix into the normal derivative of the right-hand side
    # one level up, modulo terms that the reference subtraction has already
    # cancelled.  After m - 1 applications (none at m = 1) the (n,n) entry
    # carries the order-m quadratic form.
    residual = leading_coefficient_inverse(boundary.lame, chart) @ delta
    for _ in range(m - 1):
        residual = lin_inverse(residual, boundary)
    residual_entry = residual[nn, nn]

    form = -residual_entry * boundary.peeling_scale * boundary.norm_sq
    form = form.x_degree_cap(trust).with_accuracy(min(form.accuracy, trust + 2))

    block, diag = extract_quadratic(form, tol=quadraticity_tol)
    diag["tangential_trust"] = trust

    trace = Jet.zero(block.context)
    for a in range(nn):
        for b in range(nn):
            trace = trace + block[a, b] * boundary.g[a, b]
    denom_const = boundary.trace_denominator.constant_term.real
    if not denom_const > 0:
        raise ConsistencyError(
            f"trace denominator must be positive, got {denom_const:g}")
    h = trace * boundary.inv_trace_denominator

    lam, mu = boundary.lame.lam, boundary.lame.mu
    inv_l2m = boundary.lame.inv_l2m
    out = [[((2 * lam + 5 * mu) * h * partial.g_inv[a, b] - block[a, b])
            * inv_l2m for b in range(nn)] for a in range(nn)]
    deriv, worst_imag = _realify(JetMatrix(chart, out), imaginary_tol,
                                 f"order-{m} derivative entry")
    diag.update({
        "imaginary": worst_imag,
        "residual_scale": residual_entry.max_abs(),
        "trace_denominator": denom_const,
    })
    return deriv, diag


def recover_full(obs: ObservedSymbols, M: int,
                 quadraticity_tol: float = QUADRATICITY_TOL,
                 imaginary_tol: float = IMAGINARY_TOL,
                 cross_check: bool = False) -> RecoveredBoundaryData:
    """Run order zero and then peel orders 1..M sequentially."""
    if M < 0:
        raise ValueError("M must be >= 0")
    obs.require_depth(M)
    g_inv, diag0 = recover_order0(obs, quadraticity_tol, imaginary_tol)
    diagnostics = {
        "quadraticity": diag0["quadraticity"],
        "imaginary": diag0["imaginary"],
        "orders_recovered": 0,
        "peeling": {},
    }
    data = RecoveredBoundaryData(obs.chart, g_inv, [], diagnostics)
    if cross_check:
        diagnostics["cross_check"] = _cross_check_residual(obs, g_inv)
    boundary = boundary_factorization(obs, g_inv) if M else None
    for m in range(1, M + 1):
        try:
            block, diag = recover_normal_derivative(
                m, obs, data, boundary, quadraticity_tol, imaginary_tol)
        except (ConsistencyError, AccuracyExhausted) as exc:
            raise type(exc)(f"order {m}: {exc}") from exc
        data.normal_derivs.append(block)
        diagnostics["quadraticity"] = max(diagnostics["quadraticity"],
                                          diag["quadraticity"])
        diagnostics["imaginary"] = max(diagnostics["imaginary"],
                                       diag["imaginary"])
        diagnostics["peeling"][m] = diag
        diagnostics["orders_recovered"] = m
    return data


def _cross_check_residual(obs: ObservedSymbols, g_inv: JetMatrix) -> float:
    """Deviation between Hessian and polarization extraction at order 0."""
    norm_rec = _principal_norm(obs)
    sampled = extract_quadratic_sampled(norm_rec * norm_rec)
    return (sampled - g_inv).max_abs()
