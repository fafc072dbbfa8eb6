"""The benchmark's per-layer tracer still finds every name it patches.

``perfbench/tracer.py`` wraps package functions and jet operators by name,
so renaming one of them would break ``perfbench/run.py --trace 1`` and
nothing else.
"""

import contextlib
import importlib.util
from pathlib import Path

import elastic_dtn
import elastic_dtn.cli  # noqa: F401  (the tracer patches every layer)
import elastic_dtn.serialize  # noqa: F401
from elastic_dtn.scenes import canonical_json, random_scene

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _recovered_document(scene, order, tracer=None):
    # through module attributes, as the benchmark calls them, so that the
    # patches apply
    pkg = elastic_dtn

    def stage(name):
        return tracer.stage_span(name) if tracer else contextlib.nullcontext()

    with stage("forward"):
        ctx = pkg.symbols.build_context(scene.metric, scene.lame, scene.context)
        levels = pkg.symbols.dtn_symbols(ctx, order)
    with stage("recover"):
        observed = pkg.recovery.ObservedSymbols(levels, scene.lame, scene.context)
        data = pkg.recovery.recover_full(observed, order)
    return canonical_json(pkg.serialize.recovered_to_json(data))


def test_traced_roundtrip_matches_untraced():
    scene = random_scene(1, dimension=2, truncation_order=6, order=3)
    expected = _recovered_document(scene, 3)
    tracer = _tracer_class()(elastic_dtn)
    tracer.begin_case(0)
    tracer.install()
    try:
        traced = _recovered_document(scene, 3, tracer)
    finally:
        tracer.uninstall()
    counters = tracer.end_case()
    assert traced == expected
    for name in ("jets.matmul.calls", "jets.mul.calls"):
        assert sum(counters.get((stage, name), 0)
                   for stage in ("forward", "recover")) > 0, name
