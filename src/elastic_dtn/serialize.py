"""Document schemas for symbol-level and recovered-data files (schema 1)."""

from __future__ import annotations

from .geometry import LameJet
from .jets import JetContext, JetMatrix
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
    require_int,
)
from .symbols import SymbolLevels


def _matrix_to_json(matrix: JetMatrix, where: str) -> list:
    return [[jet_to_map(matrix[i, j], f"{where}[{i}][{j}]")
             for j in range(matrix.cols)] for i in range(matrix.rows)]


def _matrix_from_json(context: JetContext, data, where: str,
                      accuracy: int | None) -> JetMatrix:
    n = context.dimension
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        raise SceneError(f"{where}: expected a {n}x{n} array of jet maps")
    entries = [[jet_from_map(context, data[i][j], where=f"{where}[{i}][{j}]",
                             accuracy=accuracy)
                for j in range(n)] for i in range(n)]
    return JetMatrix(context, entries)


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
    return {
        "schema": SCHEMA_VERSION,
        "kind": levels.kind,
        "chart": context_to_json(chart),
        "levels": {str(d): _matrix_to_json(m, f"level {d}")
                   for d, m in levels.levels.items()},
        "accuracy": {str(d): m.accuracy for d, m in levels.levels.items()},
        "lame": {"lambda": jet_to_map(lame.lam, "lambda"),
                 "mu": jet_to_map(lame.mu, "mu")},
    }


def observed_from_json(data: dict) -> ObservedSymbols:
    if not isinstance(data, dict):
        raise SceneError("symbols document: expected a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise SceneError(
            f"symbols document: unsupported schema {data.get('schema')!r}")
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
        levels[degree] = _matrix_from_json(chart, block, where=f"level {key}",
                                           accuracy=accuracy[key])
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
            jet = jet_from_map(chart, jet_map, where=f"{where}[{key!r}]",
                               accuracy=acc)
            rows[a - 1][b - 1] = jet
            rows[b - 1][a - 1] = jet
        if any(e is None for row in rows for e in row):
            raise SceneError(f"{where}: incomplete block")
        return JetMatrix(chart, rows)

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
