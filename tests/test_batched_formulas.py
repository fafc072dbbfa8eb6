"""Every batched formula keeps every bit of its loop form.

A matrix product of stacked matrices is one kernel call, and so are the
composition sum of ``build_E``, the products of ``solve_q`` and of
``lin_inverse``; ``prepare`` inverts the tangential block of the metric
alone.  The loop forms in ``oracles.py`` compute the same one product at a
time, as the package did before.  The two must agree byte for byte,
signed zeros included, on random scenes for n = 2, 3, 4 and on the
``configs/`` scenes: the constant coefficients of ``euclidean`` put zero
and constant operands inside a batch, which then loses the kernel's
constant-operand shortcut.
"""

from pathlib import Path

import numpy as np
import pytest

from elastic_dtn import Jet, JetContext, JetMatrix, jets, mat_inverse
from elastic_dtn.geometry import assemble_full_metric, prepare
from elastic_dtn.recovery import lin_inverse
from elastic_dtn.scenes import load_scene, random_scene
from elastic_dtn.symbols import build_context, build_E, q1, solve_q

from oracles import (
    build_E_by_terms,
    full_metric_inverse,
    lin_inverse_by_products,
    matmul_by_columns,
    solve_q_by_products,
)

ROOT = Path(__file__).resolve().parent.parent
SCENES = ["random-2-1", "random-2-2", "random-3-1", "random-3-2", "random-4-1",
          "euclidean", "curved_scene", "random_3_5_2"]
TRUNCATION = {2: 7, 3: 5, 4: 4}


def _scene(name):
    if not name.startswith("random-"):
        return load_scene(ROOT / "configs" / f"{name}.json")
    n, seed = map(int, name.split("-")[1:])
    return random_scene(seed, dimension=n, truncation_order=TRUNCATION[n])


def assert_same_bits(got, expected):
    assert type(got) is type(expected)
    assert (got.accuracy, got.degree) == (expected.accuracy, expected.degree)
    assert got.coeffs.shape == expected.coeffs.shape
    assert got.coeffs.tobytes() == expected.coeffs.tobytes()


@pytest.mark.parametrize("name", SCENES)
def test_recursion_matches_its_loop_forms(name):
    # every level the recursion reaches, at its full depth
    scene = _scene(name)
    ctx = build_context(scene.metric, scene.lame, scene.context)
    levels = {1: q1(ctx)}
    for m in range(-1, scene.context.truncation_order - 1):
        E = build_E(m, levels, ctx)
        assert_same_bits(E, build_E_by_terms(m, levels, ctx))
        X = solve_q(E, ctx)
        assert_same_bits(X, solve_q_by_products(E, ctx))
        assert_same_bits(lin_inverse(X, ctx), lin_inverse_by_products(X, ctx))
        levels[-m - 1] = X


@pytest.mark.parametrize("name", SCENES)
def test_prepare_inverse_equals_the_full_newton_inverse(name):
    metric = _scene(name).metric
    ginv = prepare(metric).ginv
    assert_same_bits(ginv, full_metric_inverse(metric))
    assert_same_bits(ginv, mat_inverse(assemble_full_metric(metric)))


def _entry(ctx, rng, kind, accuracy):
    if kind == "zero":
        return Jet.zero(ctx)
    if kind == "const":
        return Jet.constant(ctx, complex(*rng.uniform(-1, 1, size=2)))
    coeffs = rng.uniform(-1, 1, size=(2, ctx.sizes[accuracy]))
    return Jet(ctx, coeffs[0] + 1j * coeffs[1], accuracy)


def _matrices(ctx, rng, batch, rows, cols, kinds):
    """``batch`` matrices whose entries cycle through ``kinds``, trusted in
    turn to K, K - 1, 2 and 0."""
    K = ctx.truncation_order
    out = []
    for i in range(batch):
        accuracy = (K, K - 1, 2, 0)[i % 4]
        out.append(JetMatrix(ctx, [
            [_entry(ctx, rng, kinds[(r + 2 * c + i) % len(kinds)], accuracy)
             for c in range(cols)] for r in range(rows)]))
    return out


@pytest.mark.parametrize("kinds", [("dense",), ("zero", "const", "dense"),
                                   ("const",), ("const", "zero")])
@pytest.mark.parametrize("r,k,c", [(2, 2, 2), (3, 4, 2), (4, 4, 4), (1, 3, 5)])
def test_stacked_matmul_matches_products_one_column_at_a_time(kinds, r, k, c):
    ctx = JetContext(3, 5, (0.7, -1.1))
    rng = np.random.default_rng(r * 100 + k * 10 + c)
    lefts = _matrices(ctx, rng, 3, r, k, kinds)
    rights = _matrices(ctx, rng, 3, k, c, kinds[::-1])
    for i, j in ((0, 1), (1, 0), (2, 2)):
        left, right = jets.stack([lefts[i], lefts[j]]), jets.stack(rights[:2])
        got = left @ right
        assert got.coeffs.shape[:3] == (2, r, c)
        for b, (x, y) in enumerate(((lefts[i], rights[0]),
                                    (lefts[j], rights[1]))):
            expected = matmul_by_columns(
                x.with_accuracy(left.accuracy), y.with_accuracy(right.accuracy))
            assert_same_bits(got[b], expected)
    # leading axes broadcast as in numpy's matmul
    left = jets.stack(lefts).reshape(3, 1, r, k)
    right = jets.stack(rights[:2])
    got = left @ right
    assert got.coeffs.shape[:4] == (3, 2, r, c)
    for i in range(3):
        for j in range(2):
            assert_same_bits(got[i, j], matmul_by_columns(
                lefts[i].with_accuracy(left.accuracy),
                rights[j].with_accuracy(right.accuracy)))


@pytest.mark.parametrize("k", [4, 5, 9])
def test_matmul_adds_its_terms_in_order_when_nothing_else_is_left(k):
    # a 1 x 1 result of one coefficient leaves numpy only the k axis to loop
    # over, where np.add.reduce would add the terms pairwise
    ctx = JetContext(2, 4, (1.0,))
    rng = np.random.default_rng(k)
    scales = 10.0 ** rng.uniform(-8, 8, size=(2, k))
    row = JetMatrix(ctx, [[Jet.constant(ctx, s * (1 + 0.3j), 0)
                           for s in scales[0]]])
    column = JetMatrix(ctx, [[Jet.constant(ctx, s * (0.7 - 1j), 0)]
                             for s in scales[1]])
    assert_same_bits(row @ column, matmul_by_columns(row, column))


def test_subtract_each_and_scaling_by_numbers_match_the_loop():
    ctx = JetContext(3, 4, (0.7, -1.1))
    rng = np.random.default_rng(3)
    kinds = ("dense", "const", "zero")
    seed, x, *rest = _matrices(ctx, rng, 5, 3, 3, kinds)
    terms = jets.stack([x, -x, *rest])  # x - x leaves zeros of both signs
    coeffs = [1.0, -1j, -0.5, 1 / 6j, 0.0]
    scaled = terms * np.array(coeffs).reshape(-1, 1, 1)
    expected = seed
    for i, coeff in enumerate(coeffs):
        assert_same_bits(scaled[i], coeff * terms[i])
        expected = expected - coeff * terms[i]
    assert_same_bits(seed.subtract_each(scaled), expected)
