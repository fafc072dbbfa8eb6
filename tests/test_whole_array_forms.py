"""b0, c2, the quadratic-form extraction and the peeling contraction keep
every bit of their entry-by-entry forms.

Each is written as whole-array products and ordered sums; the loop forms
in ``oracles.py`` compute the same one entry at a time, as the package did
before.  The two must agree byte for byte, signed zeros included, with the
same accuracy and degree, on random scenes for n = 2, 3, 4 and on the
``configs/`` scenes.  The constant coefficients of ``euclidean`` put
constant operands next to non-constant ones, and a batch that mixes them
loses the kernel's constant-operand shortcut.  Two synthetic inputs reach
the signed zeros that no scene has: a -0.0 off the diagonal of b0, and a
trace whose terms are all -0.0.
"""

from pathlib import Path

import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix, mat_inverse, recovery
from elastic_dtn.geometry import (
    LameJet,
    MetricJet,
    _Geometry,
    normal_multiplier_matrix,
    prepare,
)
from elastic_dtn.recovery import BoundaryFactorization, recover_full
from elastic_dtn.scenes import load_scene, random_scene
from elastic_dtn.symbols import build_context, factorization

from oracles import (
    b0_by_entries,
    c2_by_entries,
    extract_quadratic_by_entries,
    peeled_block_by_entries,
)
from roundtrip_utils import forward_observed
from test_batched_formulas import assert_same_bits

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ["euclidean", "curved_scene", "random_3_5_2", "random_4_5_2"]
SHAPES = {2: (7, 4), 3: (6, 3), 4: (5, 2)}  # n: (K, M)
SCENES = [f"random-{n}-{seed}" for n in SHAPES for seed in (1, 2, 3)] + CONFIGS


def _scene(name):
    """A scene and the order it is recovered to."""
    if not name.startswith("random-"):
        scene = load_scene(ROOT / "configs" / f"{name}.json")
        return scene, scene.order
    n, seed = map(int, name.split("-")[1:])
    K, M = SHAPES[n]
    return random_scene(seed, dimension=n, truncation_order=K, order=M), M


@pytest.mark.parametrize("name", SCENES)
def test_b0_and_c2_match_their_entry_forms(name):
    scene, _ = _scene(name)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    assert_same_bits(ctx.b0, b0_by_entries(ctx.geo, ctx.lame))
    assert_same_bits(ctx.c2, c2_by_entries(ctx))


@pytest.mark.parametrize("name", SCENES)
def test_recovery_contractions_match_their_entry_forms(name, monkeypatch):
    # every form recovery extracts and every block it peels, in place
    scene, order = _scene(name)
    calls = {"extract": [], "peel": []}

    def spy(key, function):
        def recorded(*args, **kwargs):
            result = function(*args, **kwargs)
            calls[key].append((args, result))
            return result
        monkeypatch.setattr(recovery, function.__name__, recorded)

    spy("extract", recovery.extract_quadratic)
    spy("peel", recovery._peeled_block)
    observed, _ = forward_observed(scene, order)
    recover_full(observed, order)
    assert len(calls["extract"]) == order + 1
    assert len(calls["peel"]) == order

    for (Q, *_), (block, diag) in calls["extract"]:
        expected, rebuilt = extract_quadratic_by_entries(Q)
        assert_same_bits(block, expected)
        assert diag["quadraticity"] == (Q - rebuilt).max_abs()
    for args, out in calls["peel"]:
        assert_same_bits(out, peeled_block_by_entries(*args))


def _constant_geometry():
    """A 3-d chart with a constant metric whose off-diagonal entry is
    negative, constant Lame coefficients, and the metric's geometry, whose
    connection is +0.0 throughout."""
    chart = JetContext(3, 5, (0.7, -1.1))
    spatial = chart.spatial
    entry = lambda value: Jet.constant(spatial, value)  # noqa: E731
    metric = MetricJet(spatial, [[entry(1.0), entry(-0.5)],
                                 [entry(-0.5), entry(1.0)]])
    return chart, LameJet.constant(spatial, 1.0, 1.0), prepare(metric)


def test_b0_keeps_the_signed_zeros_off_its_diagonal():
    # no scene has a -0.0 in its connection; adding the diagonal terms as
    # diagonal matrices would turn each off-diagonal -0.0 into +0.0
    _, lame, geo = _constant_geometry()
    negated = _Geometry(geo.g, geo.ginv, -geo.gamma)
    grad_lam = negated.raised_gradient(lame.lam)
    assert_same_bits(normal_multiplier_matrix(negated, lame, grad_lam),
                     b0_by_entries(negated, lame))


def test_the_peeling_trace_keeps_its_zero_seed():
    # a zero form with -0.0 on its diagonal: every term B_ab g_ab is -0.0,
    # so only the zero seed makes the trace +0.0, and the sign reaches the
    # off-diagonal entries of the recovered block
    chart, lame, geo = _constant_geometry()
    g_inv = geo.ginv[:2, :2]
    boundary = BoundaryFactorization(**vars(factorization(g_inv, lame, chart)),
                                     g=mat_inverse(g_inv))
    coeffs = np.zeros((2, 2, chart.spatial.sizes[3]), dtype=complex)
    coeffs[[0, 1], [0, 1]] = -0.0
    block = JetMatrix._wrap(chart.spatial, coeffs, 3, 0)
    assert_same_bits(recovery._peeled_block(block, g_inv, boundary),
                     peeled_block_by_entries(block, g_inv, boundary))
