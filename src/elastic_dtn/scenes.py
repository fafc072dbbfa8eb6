"""Scene configuration, random scene sampling, and the JSON jet codecs.

A *scene* is one admissible boundary chart: dimension, truncation order,
base covector, tangential metric jets, the two material coefficient jets,
plus the requested recursion depth and optional tolerance overrides.

File conventions (schema 1): complex numbers are ``[re, im]`` pairs, jet
coefficient maps key canonical exponent strings ``"e1 e2 ... "`` (single
spaces, no leading zeros), and metric blocks key ``"a,b"`` with 1-based
indices ``a <= b``; symmetry is filled in.  A jet of x alone (metric, Lame
fields, recovered blocks) keys ``2n-1`` exponents: the n x-variables, then
n-1 cotangent exponents, which are zero.  A jet on the full chart, such as
a symbol level of a schema-2 symbols document (:mod:`elastic_dtn.serialize`),
keys its ``2n-2`` variables: the n x-variables, then the n-2 hyperplane
offsets.

Documents are written with sorted keys: with a two-space indent, or, for
symbols documents, whose levels hold only their x_n = 0 coefficients, as
one compact line (:func:`atomic_write_json`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .geometry import LameJet, MetricJet
from .jets import (
    ZERO_COEFF_TOL,
    Jet,
    JetContext,
    JetMatrix,
    _basis,
    check_chart_shape,
)

SCHEMA_VERSION = 1

_BLOCK_KEY = re.compile(r"^(\d+),(\d+)$")

DEFAULT_TOLERANCES = {
    "roundtrip": 1e-6,
    "quadraticity": 1e-6,
    "imaginary": 1e-9,
    "identity": 1e-9,
    "algebra": 1e-10,
}


class SceneError(Exception):
    """A scene document failed validation; maps to CLI exit code 2."""


@dataclass
class SceneConfig:
    metric: MetricJet
    lame: LameJet
    context: JetContext
    order: int = 3
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.context.dimension

    @property
    def truncation_order(self) -> int:
        return self.context.truncation_order

    @property
    def base_covector(self) -> tuple:
        return self.context.base_covector

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


# -- JSON primitives -----------------------------------------------------


def complex_from_json(value, where: str = "value") -> complex:
    parts = [value, 0] if isinstance(value, (int, float)) else value
    # the bound also rejects NaN and integers too large for a float
    if (isinstance(parts, list) and len(parts) == 2
            and all(isinstance(p, (int, float)) and abs(p) <= sys.float_info.max
                    for p in parts)):
        return complex(parts[0], parts[1])
    raise SceneError(f"{where}: expected a finite number or [re, im] pair, "
                     f"got {value!r}")


def require_int(value, where: str, low: int, high: int | None = None) -> int:
    """A JSON integer (not a bool) in ``low..high``; else an input error."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise SceneError(f"{where} must be an integer {span}, got {value!r}")
    return value


@functools.cache
def _key_table(nvars: int, K: int, pad: int):
    """The canonical exponent keys of a chart shape, each followed by
    ``pad`` zero exponents, in basis order (an object array), and the basis
    position of each key."""
    suffix = " 0" * pad
    keys = np.array([" ".join(map(str, m)) + suffix for m in _basis(nvars, K)[0]],
                    dtype=object)
    return keys, {key: i for i, key in enumerate(keys.tolist())}


def _layout(chart: JetContext) -> tuple:
    """(nvars, K, pad) of a chart's keys: a jet of x alone (on the spatial
    chart) keys n - 1 zero cotangent exponents after its x-exponents."""
    pad = 0 if chart.full is chart else chart.dimension - 1
    return chart.nvars, chart.truncation_order, pad


def jet_to_map(jet: Jet, where: str = "jet") -> dict:
    """The nonzero coefficients of ``jet`` keyed by their exponent strings."""
    c = jet.coeffs
    if not np.isfinite(c).all():
        raise SceneError(f"{where}: cannot write a coefficient that is not "
                         f"finite")
    nonzero = np.flatnonzero(c)
    keys = _key_table(*_layout(jet.context))[0]
    values = c[nonzero]
    pairs = map(list, zip(values.real.tolist(), values.imag.tolist()))
    return dict(zip(keys[nonzero].tolist(), pairs))


def _canonical_entries(layout: tuple, data: dict):
    """(positions, values) of a map whose keys are all canonical and whose
    values are all finite ``[float, float]`` pairs; else None."""
    index = _key_table(*layout)[1]
    positions = list(map(index.get, data))
    if None in positions:
        return None
    values = list(data.values())
    numbers = itertools.chain.from_iterable(values)
    if (set(map(type, values)) != {list} or set(map(len, values)) != {2}
            or set(map(type, numbers)) != {float}):
        return None
    parts = np.array(values, dtype=np.float64)
    if not np.isfinite(parts).all():
        return None
    # the [re, im] rows are complex numbers bit for bit, -0.0 included
    return np.array(positions, dtype=np.int64), parts.view(np.complex128)[:, 0]


def _parsed_entries(layout: tuple, data: dict, where: str):
    """(positions, values) of every entry of a coefficient map, validated.

    A key is written canonically, as the writer writes it, so no two keys
    of one map name the same monomial.  Padding exponents, the cotangent
    exponents of a jet of x alone, may only carry coefficients of at most
    ``ZERO_COEFF_TOL``, which are dropped.
    """
    nvars, K, pad = layout
    width = nvars + pad
    index = _basis(nvars, K)[1]
    positions, values = [], []
    for key, value in data.items():
        parts = key.split()
        exps = (tuple(map(int, parts))
                if all(p.isdecimal() for p in parts) else ())
        if len(exps) != width or " ".join(map(str, exps)) != key:
            raise SceneError(
                f"{where}: bad exponent key {key!r} (need {width} "
                f"non-negative integers, single-spaced, no leading zeros)")
        if sum(exps) > K:
            raise SceneError(
                f"{where}: exponent key {key!r} exceeds truncation order {K}")
        value = complex_from_json(value, f"{where}[{key!r}]")
        if any(exps[nvars:]):
            if abs(value) > ZERO_COEFF_TOL:
                raise SceneError(f"{where}: exponent key {key!r} names a "
                                 f"cotangent variable of a jet of x alone")
            continue
        positions.append(index[exps[:nvars]])
        values.append(value)
    return (np.array(positions, dtype=np.int64),
            np.array(values, dtype=np.complex128))


def map_entries(layout: tuple, data, where: str):
    """(basis positions, values) of a coefficient map over ``layout``.

    Canonical keys with finite ``[re, im]`` float pairs, the form every
    document is written in, are looked up in the layout's key table; any
    other map goes through the parser, which accepts or reports it.
    """
    if not isinstance(data, dict):
        raise SceneError(f"{where}: expected a coefficient map, got {type(data).__name__}")
    entries = _canonical_entries(layout, data)
    return entries if entries is not None else _parsed_entries(layout, data, where)


def jet_from_map(context: JetContext, data: dict, where: str = "jet",
                 accuracy: int | None = None) -> Jet:
    """The jet of a coefficient map on ``context``, trusted to ``accuracy``
    (default: K); coefficients above it are dropped."""
    positions, values = map_entries(_layout(context), data, where)
    jet = Jet.from_coefficients(context, {}, accuracy)
    keep = positions < len(jet.coeffs)
    jet.coeffs[positions[keep]] = values[keep]
    return jet


def context_to_json(context: JetContext) -> dict:
    return {
        "dimension": context.dimension,
        "truncation_order": context.truncation_order,
        "base_covector": list(context.base_covector),
    }


def context_from_json(data: dict, where: str = "chart") -> JetContext:
    try:
        covector = [float(v) for v in data["base_covector"]]
        if not all(math.isfinite(v) for v in covector):
            raise ValueError(f"base covector must be finite, got {covector}")
        return JetContext(require_int(data["dimension"], f"{where}: dimension", 2),
                          require_int(data["truncation_order"],
                                      f"{where}: truncation_order", 2),
                          covector)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"{where}: invalid chart: {exc}") from exc


def block_to_json(block: JetMatrix, where: str) -> dict:
    """A symmetric block as 1-based ``"a,b"`` keys with a <= b."""
    return {f"{a + 1},{b + 1}": jet_to_map(block[a, b],
                                           f"{where}['{a + 1},{b + 1}']")
            for a in range(block.rows) for b in range(a, block.cols)}


def block_key(key: str, size: int, where: str) -> tuple[int, int]:
    """1-based ``"a,b"`` key of a symmetric block with a <= b <= size."""
    match = _BLOCK_KEY.match(key)
    if not match:
        raise SceneError(f"{where}: malformed key {key!r} (expected 'a,b')")
    a, b = int(match.group(1)), int(match.group(2))
    if not (1 <= a <= b <= size):
        raise SceneError(
            f"{where}: key {key!r} out of range (need 1 <= a <= b <= {size})")
    return a, b


def metric_from_json(context: JetContext, data: dict) -> MetricJet:
    if not isinstance(data, dict):
        raise SceneError(f"metric: expected an object of 'a,b' entries, "
                         f"got {type(data).__name__}")
    n = context.dimension
    context = context.spatial
    zero = Jet.zero(context)
    entries = [[zero for _ in range(n - 1)] for _ in range(n - 1)]
    seen = set()
    for key, jet_map in data.items():
        a, b = block_key(key, n - 1, "metric")
        jet = jet_from_map(context, jet_map, where=f"metric[{key!r}]")
        if jet.max_imag() > 1e-12:
            raise SceneError(f"metric[{key!r}]: coefficients must be real")
        entries[a - 1][b - 1] = jet
        entries[b - 1][a - 1] = jet
        seen.add((a, b))
    for a in range(1, n):
        if (a, a) not in seen:
            raise SceneError(f"metric: missing diagonal key '{a},{a}'")
    try:
        return MetricJet(context, entries)
    except ValueError as exc:
        raise SceneError(f"metric: {exc}") from exc


def lame_from_json(context: JetContext, lam_map: dict, mu_map: dict,
                   where: str) -> LameJet:
    lam = jet_from_map(context.spatial, lam_map, where="lambda")
    mu = jet_from_map(context.spatial, mu_map, where="mu")
    try:
        return LameJet(lam, mu)
    except ValueError as exc:
        raise SceneError(f"{where}: {exc}") from exc


# -- scene documents ------------------------------------------------------


def scene_to_json(scene: SceneConfig) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "dimension": scene.dimension,
        "truncation_order": scene.truncation_order,
        "base_covector": list(scene.base_covector),
        "metric": block_to_json(scene.metric.tangential_matrix(), "metric"),
        "lambda": jet_to_map(scene.lame.lam, "lambda"),
        "mu": jet_to_map(scene.lame.mu, "mu"),
        "order": scene.order,
    }
    if scene.seed is not None:
        doc["seed"] = scene.seed
    if scene.tolerances:
        doc["tolerances"] = scene.tolerances
    return doc


def scene_from_json(data: dict) -> SceneConfig:
    if not isinstance(data, dict):
        raise SceneError("scene: expected a JSON object")
    for key in ("dimension", "truncation_order", "base_covector", "metric",
                "lambda", "mu"):
        if key not in data:
            raise SceneError(f"scene: missing required key {key!r}")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SceneError("scene: tolerances must be an object")
    try:
        tolerances = {k: float(v) for k, v in tolerances.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"scene: {exc}") from exc
    if not all(0 < v < math.inf for v in tolerances.values()):  # NaN fails
        raise SceneError(
            f"scene: tolerances must be finite numbers > 0, got {tolerances}")
    order = require_int(data.get("order", 3), "scene: order", 0)
    seed = data.get("seed")
    if seed is not None:
        seed = require_int(seed, "scene: seed", 0)
    context = context_from_json(data, where="scene")
    if context.truncation_order < order + 3:
        raise SceneError(
            f"scene: truncation order {context.truncation_order} too small for "
            f"order {order} (need truncation_order >= order + 3)")
    metric = metric_from_json(context, data["metric"])
    lame = lame_from_json(context, data["lambda"], data["mu"], "scene")
    unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise SceneError(f"scene: unknown tolerance keys {sorted(unknown)}")
    return SceneConfig(
        metric=metric,
        lame=lame,
        context=context,
        order=order,
        seed=seed,
        tolerances=tolerances,
    )


def read_json(path, what: str):
    """The parsed JSON document at ``path``; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read {what} file: {exc}") from exc
    # bytes that are not UTF-8, or nesting deeper than the parser's stack
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SceneError(f"{what} file is not valid JSON: {exc}") from exc


def load_scene(path) -> SceneConfig:
    return scene_from_json(read_json(path, "scene"))


# -- random admissible scenes ---------------------------------------------


def _random_spatial_jet(context: JetContext, rng, degree: int,
                        amplitude: float) -> Jet:
    coeffs = {}
    for m in context.spatial.monomials:
        d = sum(m)
        if d == 0 or d > degree:
            continue
        coeffs[m] = rng.uniform(-amplitude, amplitude) * 0.5 ** (d - 1)
    return Jet.from_coefficients(context.spatial, coeffs)


def random_scene(seed: int, dimension: int = 2, truncation_order: int = 6,
                 degree: int = 3, order: int = 3,
                 amplitude: float = 0.15) -> SceneConfig:
    """Draw an admissible scene: perturbed flat metric, safe coefficients."""
    check_chart_shape(dimension, truncation_order)
    rng = np.random.default_rng(seed)
    order = min(order, truncation_order - 3)
    n = dimension
    xi0 = rng.uniform(0.6, 1.4, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
    context = JetContext(n, truncation_order, xi0)

    base = rng.uniform(-1.0, 1.0, size=(n - 1, n - 1))
    const = np.eye(n - 1) + 0.2 * (base + base.T) / 2.0
    entries = [[None] * (n - 1) for _ in range(n - 1)]
    for a in range(n - 1):
        for b in range(a, n - 1):
            jet = _random_spatial_jet(context, rng, degree, amplitude)
            jet = jet + const[a][b]
            entries[a][b] = jet
            entries[b][a] = jet
    metric = MetricJet(context.spatial, entries)

    lam = _random_spatial_jet(context, rng, degree, amplitude * 0.6) \
        + rng.uniform(0.3, 1.2)
    mu = _random_spatial_jet(context, rng, degree, amplitude * 0.6) \
        + rng.uniform(0.6, 1.5)
    lame = LameJet(lam, mu)
    return SceneConfig(
        metric=metric,
        lame=lame,
        context=context,
        order=order,
        seed=seed,
    )


def random_vector_field(context: JetContext, rng, degree: int = 3,
                        amplitude: float = 0.5) -> JetMatrix:
    comps = []
    n = context.dimension
    for _ in range(n):
        coeffs = {}
        for m in context.monomials:
            if sum(m) > degree or any(m[n:]):
                continue
            coeffs[m] = (rng.uniform(-amplitude, amplitude)
                         + 1j * rng.uniform(-amplitude, amplitude))
        comps.append(Jet.from_coefficients(context, coeffs))
    return JetMatrix.column(context, comps)


# -- canonical output ------------------------------------------------------


_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2)
# indent=None is what lets the encoder run its C implementation in one shot
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_batches(document):
    """The canonical text of ``document``, in batches of encoder chunks.

    The indented encoder runs in Python and yields one chunk per token;
    held at once, the chunks take several times the size of the text.
    """
    chunks = _CANONICAL.iterencode(document)
    yield from iter(lambda: "".join(itertools.islice(chunks, 8192)), "")
    yield "\n"


def canonical_json(document) -> str:
    return "".join(_canonical_batches(document))


def atomic_write_json(path, document, compact: bool = False) -> None:
    """Write ``document`` to ``path`` through a temporary file.

    The text is canonical: sorted keys and two-space indent, or, with
    ``compact``, one line of sorted keys with no spaces.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if compact:
                fh.write(_COMPACT.encode(document) + "\n")
            else:
                fh.writelines(_canonical_batches(document))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
