"""Batch front end: forward, recover, roundtrip and verify pipelines.

Exit codes: 0 success, 1 invariant/tolerance failure, 2 input error
(including a matrix that ``mat_inverse`` refuses, such as one whose
entries overflow), 3 accuracy exhaustion, 4 consistency-gate failure
(NaN fails every gate).  Output files are
written atomically and are byte-identical across repeated invocations
with the same inputs; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .geometry import leading_coefficient_inverse
from .jets import AccuracyExhausted, Jet, JetMatrix, NotInvertible, mat_inverse
from .recovery import ConsistencyError, ObservedSymbols, lin_inverse, recover_full
from .scenes import (
    SceneConfig,
    SceneError,
    atomic_write_json,
    canonical_json,
    load_scene,
    random_scene,
    random_vector_field,
    read_json,
    scene_to_json,
)
from .serialize import observed_from_json, recovered_to_json, symbols_to_json
from .symbols import build_context, dtn_symbols, plane_wave_consistency, q1, solve_q

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_ACCURACY = 3
EXIT_GATE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastic-dtn",
        description="Forward symbol levels and boundary-metric recovery "
                    "for the elastic displacement-to-traction operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    forward = sub.add_parser("forward", help="scene -> symbol levels")
    forward.add_argument("--config", required=True, help="scene JSON path")
    forward.add_argument("--order", type=int, default=None,
                         help="recursion depth M (default: scene's order)")
    forward.add_argument("--out", default="symbols.json")

    recover = sub.add_parser("recover", help="symbol levels -> boundary data")
    recover.add_argument("--symbols", required=True, help="symbols JSON path")
    recover.add_argument("--order", type=int, default=3)
    recover.add_argument("--out", default="recovered.json")
    recover.add_argument("--tol", type=float, default=None,
                         help="override the quadraticity gate")
    recover.add_argument("--cross-check", action="store_true",
                         help="also run the polarization-sampling extraction")

    roundtrip = sub.add_parser("roundtrip", help="forward then recover")
    _scene_source_args(roundtrip)
    roundtrip.add_argument("--order", type=int, default=3)
    roundtrip.add_argument("--tol", type=float, default=None,
                           help="override the acceptance tolerance")
    roundtrip.add_argument("--out", default=None, help="report JSON path")

    verify = sub.add_parser("verify", help="run the invariant checks")
    _scene_source_args(verify)
    verify.add_argument("--out", default=None, help="report JSON path")
    verify.add_argument("--tol", type=float, default=None,
                        help="override every check tolerance")

    return parser


def _scene_source_args(sub) -> None:
    sub.add_argument("--config", default=None, help="scene JSON path")
    sub.add_argument("--seed", type=int, default=None,
                     help="generate a random admissible scene instead")
    sub.add_argument("--dimension", type=int, default=2)
    sub.add_argument("--truncation", type=int, default=6)


def _load_scene_from_args(args) -> SceneConfig:
    if args.config is not None:
        return load_scene(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise SceneError(f"--seed must be >= 0, got {args.seed}")
        try:
            return random_scene(args.seed, dimension=args.dimension,
                                truncation_order=args.truncation)
        except ValueError as exc:
            raise SceneError(f"invalid chart flags: {exc}") from exc
    raise SceneError("either --config or --seed is required")


def _order(value: int) -> int:
    if value < 0:
        raise SceneError(f"--order must be >= 0, got {value}")
    return value


def _tol(value: float | None) -> float | None:
    if value is not None and not 0 < value < float("inf"):  # NaN fails
        raise SceneError(f"--tol must be a finite number > 0, got {value}")
    return value


def _emit(document: dict, out_path: str | None) -> None:
    if out_path:
        atomic_write_json(out_path, document)
    else:
        sys.stdout.write(canonical_json(document))


def cmd_forward(args) -> int:
    scene = load_scene(args.config)
    order = scene.order if args.order is None else _order(args.order)
    # the context is released before the document, the largest object, is built
    symbols = dtn_symbols(
        build_context(scene.metric, scene.lame, scene.context), order)
    atomic_write_json(args.out,
                      symbols_to_json(symbols, scene.lame, scene.context),
                      compact=True)
    print(f"wrote levels 1..{-order} to {args.out}")
    return EXIT_OK


def cmd_recover(args) -> int:
    order, tol = _order(args.order), _tol(args.tol)
    raw = read_json(args.symbols, "symbols")
    observed = observed_from_json(raw)
    del raw  # recovery reads only the parsed levels
    kwargs = {}
    if tol is not None:
        kwargs["quadraticity_tol"] = tol
    data = recover_full(observed, order, cross_check=args.cross_check,
                        **kwargs)
    atomic_write_json(args.out, recovered_to_json(data))
    print(f"recovered orders 0..{order} to {args.out}")
    return EXIT_OK


def _true_boundary_data(scene: SceneConfig, order: int):
    ginv = mat_inverse(scene.metric.tangential_matrix())
    out = [ginv.at_boundary()]
    current = ginv
    for _ in range(order):
        current = current.dx(scene.dimension - 1)
        out.append(current.at_boundary())
    return out


def cmd_roundtrip(args) -> int:
    order, tol = _order(args.order), _tol(args.tol)
    scene = _load_scene_from_args(args)
    tolerance = tol if tol is not None else scene.tolerance("roundtrip")
    ctx = build_context(scene.metric, scene.lame, scene.context)
    symbols = dtn_symbols(ctx, order)
    observed = ObservedSymbols(symbols, scene.lame, scene.context)
    data = recover_full(observed, order, scene.tolerance("quadraticity"),
                        scene.tolerance("imaginary"))
    truth = _true_boundary_data(scene, order)
    nn = scene.dimension - 1
    errors = {}
    for m in range(order + 1):
        block = data.g_inv if m == 0 else data.normal_derivs[m - 1]
        worst = 0.0
        for a in range(nn):
            for b in range(nn):
                diff = (block[a, b] - truth[m][a, b]).max_abs()
                scale = max(truth[m][a, b].max_abs(), 1.0)
                worst = max(worst, diff / scale)
        errors[str(m)] = worst
    passed = all(v <= tolerance for v in errors.values())
    report = {
        "schema": 1,
        "command": "roundtrip",
        "inputs": scene_to_json(scene),
        "order": order,
        "tolerance": tolerance,
        "max_relative_error": errors,
        "diagnostics": {
            "quadraticity": float(data.diagnostics["quadraticity"]),
            "imaginary": float(data.diagnostics["imaginary"]),
        },
        "passed": passed,
    }
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_CHECK


def _verify_checks(scene: SceneConfig, tol_override=None) -> list[dict]:
    rng = np.random.default_rng(0 if scene.seed is None else scene.seed)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    n = scene.dimension
    checks = []

    def record(name, residual, tolerance):
        if tol_override is not None:
            tolerance = tol_override
        checks.append({
            "name": name,
            "residual": float(residual),
            "tolerance": tolerance,
            "passed": bool(residual <= tolerance),
        })

    from .geometry import apply_decomposition, lame_apply

    worst = 0.0
    for _ in range(3):
        field = random_vector_field(scene.context, rng)
        lhs = apply_decomposition(field, scene.metric, scene.lame)
        ainv = leading_coefficient_inverse(scene.lame, scene.context)
        rhs = ainv @ lame_apply(field, scene.metric, scene.lame)
        worst = max(worst, (lhs - rhs).max_abs())
    record("operator_identity", worst, scene.tolerance("identity"))

    wave = plane_wave_consistency(ctx)
    record("plane_wave_first_order", wave["b_residual"],
           scene.tolerance("identity"))
    record("plane_wave_tangential", wave["c_residual"],
           scene.tolerance("identity"))

    principal = q1(ctx)
    riccati = principal @ principal - ctx.b1 @ principal + ctx.c2
    record("riccati", riccati.max_abs(), scene.tolerance("algebra"))

    record("nilpotency_f1", (ctx.f1 @ ctx.f1).max_abs(), 1e-12)
    record("nilpotency_f2", (ctx.f2 @ ctx.f2).max_abs(), 1e-12)

    worst = 0.0
    for _ in range(2):
        entries = [[Jet.from_coefficients(
            scene.context,
            {m: rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
             for m in scene.context.monomials if sum(m) <= 2})
            for _ in range(n)] for _ in range(n)]
        E = JetMatrix(scene.context, entries)
        worst = max(worst, (lin_inverse(solve_q(E, ctx), ctx) - E).max_abs())
    record("solve_inverse_roundtrip", worst, 1e-12)

    geo = ctx.geo
    nn = n - 1
    xi = [Jet.xi_component(scene.context, a) for a in range(nn)]
    xi_up = ctx.xi_up
    dn_norm_sq = ctx.norm_sq.dn()
    first = Jet.zero(scene.context)
    second = Jet.zero(scene.context)
    for b in range(nn):
        for c in range(nn):
            first = first + geo.gamma[b, c, nn] * xi_up[c] * xi[b]
            second = second + geo.gamma[nn, b, c] * xi_up[c] * xi_up[b]
    record("gamma_identity_mixed", (first + 0.5 * dn_norm_sq).max_abs(),
           scene.tolerance("algebra"))
    record("gamma_identity_normal", (second - 0.5 * dn_norm_sq).max_abs(),
           scene.tolerance("algebra"))
    trace = Jet.zero(scene.context)
    lhs = Jet.zero(scene.context)
    for a in range(nn):
        trace = trace + geo.gamma[a, nn, a]
        for b in range(nn):
            lhs = lhs + geo.ginv[a, b] * geo.g[a, b].dn()
    record("gamma_identity_trace", (trace - 0.5 * lhs).max_abs(),
           scene.tolerance("algebra"))

    lam0 = scene.lame.lam.constant_term.real
    mu0 = scene.lame.mu.constant_term.real
    value = (2 * n - 3) * (lam0 + mu0) + (3 * n - 4) * mu0
    checks.append({
        "name": "trace_denominator_positive",
        "residual": float(value),
        "tolerance": 0.0,
        "passed": bool(value > 0.0),
    })
    return checks


def cmd_verify(args) -> int:
    tol = _tol(args.tol)
    scene = _load_scene_from_args(args)
    checks = _verify_checks(scene, tol_override=tol)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": 1,
        "command": "verify",
        "inputs": scene_to_json(scene),
        "checks": checks,
        "passed": passed,
    }
    _emit(report, args.out)
    if not passed:
        failing = ", ".join(c["name"] for c in checks if not c["passed"])
        print(f"failing checks: {failing}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "forward": cmd_forward,
        "recover": cmd_recover,
        "roundtrip": cmd_roundtrip,
        "verify": cmd_verify,
    }
    start = time.perf_counter()
    try:
        # overflow and NaN reach the user as one error line, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            code = handlers[args.command](args)
    except (SceneError, NotInvertible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AccuracyExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{args.command}] {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
