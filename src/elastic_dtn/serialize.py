"""Document schemas for symbol-level and recovered-data files.

Symbols documents are schema 2.  A level of degree d is stored as its jet
on the hyperplane of the chart, xi = xi0 + E t (see :mod:`elastic_dtn.jets`),
restricted to x_n = 0: its keys are n x-exponents, then n - 2 exponents of
the offsets t.  The material jets keep the keys of jets of x alone.  The
chart fixes E: with u = xi0/|xi0| and p the first index of the largest
|u_p|, the Householder reflection H = I - 2 w w^T / (w^T w), w = u +
sign(u_p) e_p, maps u to -sign(u_p) e_p, and E is the columns j != p of H
in increasing order, an orthonormal basis of the complement of xi0.

Schema-1 symbols documents key each level over x and the cotangent offsets
eta = xi - xi0 (2n - 1 exponents).  They load restricted to x_n = 0 and to
the hyperplane by the linear substitution eta = E t, which keeps the
degree of every monomial, and so the accuracy.

Recovered documents are schema 1.
"""

from __future__ import annotations

import numpy as np

from .geometry import LameJet
from .jets import JetContext, JetMatrix, _basis
from .recovery import ObservedSymbols, RecoveredBoundaryData
from .scenes import (
    SCHEMA_VERSION,
    SceneError,
    block_key,
    block_to_json,
    context_from_json,
    context_to_json,
    jet_from_map,
    jet_to_map,
    lame_from_json,
    map_entries,
    require_int,
)
from .symbols import SymbolLevels

__all__ = ["SYMBOLS_SCHEMA", "observed_from_json", "recovered_from_json",
           "recovered_to_json", "symbols_to_json"]

SYMBOLS_SCHEMA = 2


def _matrix_to_json(matrix: JetMatrix, where: str) -> list:
    return [[jet_to_map(matrix[i, j], f"{where}[{i}][{j}]")
             for j in range(matrix.cols)] for i in range(matrix.rows)]


def _substitution(chart: JetContext, accuracy: int):
    """eta = E t on the x_n-free monomials of schema-1 levels of degree
    <= ``accuracy``: (source position, target position, factor) arrays,
    one entry per term of each expanded monomial."""
    n = chart.dimension
    basis = chart.hyperplane_basis
    _, _, _, exps, sizes = _basis(2 * n - 1, chart.truncation_order)
    # prod_a (sum_k E_ak t_k)^(beta_a) for every eta-exponent beta met
    powers = {(0,) * (n - 1): {(0,) * (n - 2): 1.0}}

    def power(beta):
        if beta not in powers:
            a = next(i for i, e in enumerate(beta) if e)
            lower = power(beta[:a] + (beta[a] - 1,) + beta[a + 1:])
            out = {}
            for gamma, c in lower.items():
                for k in np.flatnonzero(basis[a]):
                    key = gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:]
                    out[key] = out.get(key, 0.0) + c * basis[a, k]
            powers[beta] = out
        return powers[beta]

    src, dst, factor = [], [], []
    for i, e in enumerate(exps[:sizes[accuracy]].tolist()):
        if e[n - 1]:
            continue
        for gamma, c in power(tuple(e[n:])).items():
            src.append(i)
            dst.append(chart.monomial_position(tuple(e[:n]) + gamma))
            factor.append(c)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), \
        np.array(factor)


def _level_from_json(chart: JetContext, data, where: str, accuracy: int,
                     degree: int, schema: int) -> JetMatrix:
    """A level of degree ``degree`` at x_n = 0, from its n x n array of
    jet maps in a document of ``schema``."""
    n = chart.dimension
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        raise SceneError(f"{where}: expected a {n}x{n} array of jet maps")
    nvars = chart.nvars if schema == SYMBOLS_SCHEMA else 2 * n - 1
    layout = (nvars, chart.truncation_order, 0)
    coeffs = np.zeros((n, n, _basis(*layout[:2])[4][accuracy]),
                      dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            positions, values = map_entries(layout, data[i][j],
                                            f"{where}[{i}][{j}]")
            keep = positions < coeffs.shape[-1]
            coeffs[i, j, positions[keep]] = values[keep]
    if schema != SYMBOLS_SCHEMA:
        src, dst, factor = _substitution(chart, accuracy)
        hyperplane = np.zeros((n, n, chart.sizes[accuracy]), dtype=np.complex128)
        np.add.at(hyperplane, (slice(None), slice(None), dst),
                  coeffs[..., src] * factor)
        coeffs = hyperplane
    return JetMatrix._wrap(chart, coeffs, accuracy, degree).at_boundary()


def _accuracy_map(accuracy, chart: JetContext, where: str, keys) -> dict:
    """A document's trusted degree of each of ``keys``, and of nothing
    else, each checked to be an integer in 0..K."""
    if not isinstance(accuracy, dict):
        raise SceneError(f"{where}: accuracy must be an object")
    for key, value in accuracy.items():
        require_int(value, f"{where}: accuracy {key!r}", 0, chart.truncation_order)
    if set(accuracy) != set(keys):
        raise SceneError(
            f"{where}: accuracy keys must be {sorted(keys)}, got "
            f"{sorted(accuracy)}")
    return accuracy


def symbols_to_json(levels: SymbolLevels, lame: LameJet,
                    chart: JetContext) -> dict:
    """The schema-2 symbols document of ``levels``, each level restricted
    to x_n = 0.

    The DtN symbol is a boundary symbol: recovery reads every level only
    at x_n = 0, so no other coefficient is written.
    """
    return {
        "schema": SYMBOLS_SCHEMA,
        "kind": levels.kind,
        "chart": context_to_json(chart),
        "levels": {str(d): _matrix_to_json(m.at_boundary(), f"level {d}")
                   for d, m in levels.levels.items()},
        "accuracy": {str(d): m.accuracy for d, m in levels.levels.items()},
        "lame": {"lambda": jet_to_map(lame.lam, "lambda"),
                 "mu": jet_to_map(lame.mu, "mu")},
    }


def observed_from_json(data: dict) -> ObservedSymbols:
    """The observed levels of a schema-2 or schema-1 symbols document,
    restricted to x_n = 0.

    Documents that store whole x_n-expansions load to the same levels.
    """
    if not isinstance(data, dict):
        raise SceneError("symbols document: expected a JSON object")
    schema = data.get("schema")
    if not (schema == SYMBOLS_SCHEMA or schema == 1):
        raise SceneError(f"symbols document: unsupported schema {schema!r}")
    for key in ("kind", "chart", "levels", "accuracy", "lame"):
        if key not in data:
            raise SceneError(f"symbols document: missing key {key!r}")
    for key in ("levels", "lame"):
        if not isinstance(data[key], dict):
            raise SceneError(f"symbols document: {key} must be an object")
    chart = context_from_json(data["chart"], "symbols document: chart")
    accuracy = _accuracy_map(data["accuracy"], chart, "symbols document",
                             data["levels"])
    levels = {}
    for key, block in data["levels"].items():
        try:
            degree = int(key)
        except ValueError:
            degree = None
        # canonical keys only: "+1", " 1" and "01" would also name level 1
        if degree is None or str(degree) != key:
            raise SceneError(f"symbols document: bad level key {key!r}")
        levels[degree] = _level_from_json(
            chart, block, f"level {key}", accuracy[key], degree, schema)
    try:
        parsed = SymbolLevels(data["kind"], levels)
    except ValueError as exc:
        raise SceneError(f"symbols document: {exc}") from exc
    lame_doc = data["lame"]
    if "lambda" not in lame_doc or "mu" not in lame_doc:
        raise SceneError("symbols document: lame block needs 'lambda' and 'mu'")
    lame = lame_from_json(chart, lame_doc["lambda"], lame_doc["mu"],
                          "symbols document")
    return ObservedSymbols(parsed, lame, chart)


def recovered_to_json(data: RecoveredBoundaryData) -> dict:
    def plain(value):
        if isinstance(value, dict):
            return {str(k): plain(v) for k, v in value.items()}
        if isinstance(value, (int, str)):
            return value
        return float(value)

    return {
        "schema": SCHEMA_VERSION,
        "chart": context_to_json(data.context),
        "g_inv": block_to_json(data.g_inv, "g_inv"),
        "normal_derivatives": {
            str(m + 1): block_to_json(block, f"order {m + 1}")
            for m, block in enumerate(data.normal_derivs)},
        "accuracy": {
            "g_inv": data.g_inv.accuracy,
            **{str(m + 1): block.accuracy
               for m, block in enumerate(data.normal_derivs)},
        },
        "diagnostics": plain(data.diagnostics),
    }


def recovered_from_json(data: dict) -> RecoveredBoundaryData:
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise SceneError("recovered document: bad or missing schema")
    for key in ("chart", "g_inv", "accuracy"):
        if key not in data:
            raise SceneError(f"recovered document: missing key {key!r}")
    chart = context_from_json(data["chart"], "recovered document: chart")
    nn = chart.dimension - 1
    orders = data.get("normal_derivatives", {})
    if not isinstance(orders, dict):
        raise SceneError("recovered document: normal_derivatives must be an object")
    accuracy = _accuracy_map(data["accuracy"], chart, "recovered document",
                             ["g_inv", *orders])

    def block_from_json(doc, where, acc):
        if not isinstance(doc, dict):
            raise SceneError(f"{where}: expected an object of 'a,b' entries")
        rows = [[None] * nn for _ in range(nn)]
        for key, jet_map in doc.items():
            a, b = block_key(key, nn, where)
            jet = jet_from_map(chart.spatial, jet_map,
                               where=f"{where}[{key!r}]", accuracy=acc)
            rows[a - 1][b - 1] = jet
            rows[b - 1][a - 1] = jet
        if any(e is None for row in rows for e in row):
            raise SceneError(f"{where}: incomplete block")
        return JetMatrix(chart.spatial, rows)

    g_inv = block_from_json(data["g_inv"], "g_inv", accuracy["g_inv"])
    derivs = []
    for m in range(1, len(orders) + 1):
        doc = orders.get(str(m))
        if doc is None:
            raise SceneError(f"recovered document: missing order {m}")
        derivs.append(block_from_json(doc, f"order {m}", accuracy[str(m)]))
    try:
        return RecoveredBoundaryData(chart, g_inv, derivs,
                                     data.get("diagnostics", {}))
    except ValueError as exc:
        raise SceneError(f"recovered document: {exc}") from exc
