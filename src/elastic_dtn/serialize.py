"""Document schemas for symbol-level and recovered-data files (schema 1)."""

from __future__ import annotations

from .geometry import LameJet
from .jets import JetContext, JetMatrix
from .recovery import ObservedSymbols, RecoveredBoundaryData
from .scenes import (
    SCHEMA_VERSION,
    SceneError,
    context_from_json,
    context_to_json,
    jet_from_map,
    jet_to_map,
    lame_from_json,
)
from .symbols import SymbolLevels


def _matrix_to_json(matrix: JetMatrix) -> list:
    return [[jet_to_map(matrix[i, j]) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


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


def _accuracy_map(data: dict, chart: JetContext, where: str) -> dict:
    """The document's trusted degrees, each checked to be an integer in 0..K."""
    accuracy = data.get("accuracy", {})
    if not isinstance(accuracy, dict):
        raise SceneError(f"{where}: accuracy must be an object")
    K = chart.truncation_order
    for key, value in accuracy.items():
        if (isinstance(value, bool) or not isinstance(value, int)
                or not 0 <= value <= K):
            raise SceneError(f"{where}: accuracy {key!r} must be an integer "
                             f"in 0..{K}, got {value!r}")
    return accuracy


def symbols_to_json(levels: SymbolLevels, lame: LameJet,
                    chart: JetContext) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": levels.kind,
        "chart": context_to_json(chart),
        "levels": {str(d): _matrix_to_json(m) for d, m in levels.levels.items()},
        "accuracy": {str(d): m.accuracy for d, m in levels.levels.items()},
        "lame": {"lambda": jet_to_map(lame.lam), "mu": jet_to_map(lame.mu)},
    }


def observed_from_json(data: dict) -> ObservedSymbols:
    if not isinstance(data, dict):
        raise SceneError("symbols document: expected a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise SceneError(
            f"symbols document: unsupported schema {data.get('schema')!r}")
    for key in ("kind", "chart", "levels", "lame"):
        if key not in data:
            raise SceneError(f"symbols document: missing key {key!r}")
    chart = context_from_json(data["chart"])
    accuracy = _accuracy_map(data, chart, "symbols document")
    levels = {}
    for key, block in data["levels"].items():
        try:
            degree = int(key)
        except ValueError:
            raise SceneError(f"symbols document: bad level key {key!r}") from None
        levels[degree] = _matrix_from_json(chart, block, where=f"level {key}",
                                           accuracy=accuracy.get(key))
    try:
        parsed = SymbolLevels(data["kind"], levels)
    except ValueError as exc:
        raise SceneError(f"symbols document: {exc}") from exc
    lame_doc = data["lame"]
    if "lambda" not in lame_doc or "mu" not in lame_doc:
        raise SceneError("symbols document: lame block needs 'lambda' and 'mu'")
    lame = lame_from_json(chart, lame_doc["lambda"], lame_doc["mu"])
    return ObservedSymbols(parsed, lame, chart)


def recovered_to_json(data: RecoveredBoundaryData) -> dict:
    nn = data.context.dimension - 1

    def block_to_json(block) -> dict:
        return {f"{a + 1},{b + 1}": jet_to_map(block[a][b])
                for a in range(nn) for b in range(a, nn)}

    def plain(value):
        if isinstance(value, dict):
            return {str(k): plain(v) for k, v in value.items()}
        if isinstance(value, (int, str)):
            return value
        return float(value)

    return {
        "schema": SCHEMA_VERSION,
        "chart": context_to_json(data.context),
        "g_inv": block_to_json(data.g_inv),
        "normal_derivatives": {str(m + 1): block_to_json(block)
                               for m, block in enumerate(data.normal_derivs)},
        "accuracy": {
            "g_inv": min(data.g_inv[a][b].accuracy
                         for a in range(nn) for b in range(nn)),
            **{str(m + 1): min(block[a][b].accuracy
                               for a in range(nn) for b in range(nn))
               for m, block in enumerate(data.normal_derivs)},
        },
        "diagnostics": plain(data.diagnostics),
    }


def recovered_from_json(data: dict) -> RecoveredBoundaryData:
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise SceneError("recovered document: bad or missing schema")
    chart = context_from_json(data["chart"])
    nn = chart.dimension - 1
    accuracy = _accuracy_map(data, chart, "recovered document")

    def block_from_json(doc, where, acc):
        rows = [[None] * nn for _ in range(nn)]
        for key, jet_map in doc.items():
            a, b = (int(p) for p in key.split(","))
            jet = jet_from_map(chart, jet_map, where=f"{where}[{key!r}]",
                               accuracy=acc)
            rows[a - 1][b - 1] = jet
            rows[b - 1][a - 1] = jet
        if any(e is None for row in rows for e in row):
            raise SceneError(f"{where}: incomplete block")
        return tuple(tuple(r) for r in rows)

    g_inv = block_from_json(data["g_inv"], "g_inv", accuracy.get("g_inv"))
    derivs = []
    for m in range(1, len(data.get("normal_derivatives", {})) + 1):
        doc = data["normal_derivatives"].get(str(m))
        if doc is None:
            raise SceneError(f"recovered document: missing order {m}")
        derivs.append(block_from_json(doc, f"order {m}", accuracy.get(str(m))))
    return RecoveredBoundaryData(chart, g_inv, derivs,
                                 data.get("diagnostics", {}))
