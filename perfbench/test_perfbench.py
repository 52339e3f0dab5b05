"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from expected import expected_output  # noqa: E402
from layers import EXPECTED_SPANS, layer_metrics  # noqa: E402
from tracing import SetupHook, TraceError, Tracer  # noqa: E402
from workloads import SHAPES, generate, tiny  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    for shape in map(tiny, SHAPES.values()):
        first = generate(shape, 7, tmp_path / "one")
        second = generate(shape, 7, tmp_path / "two")
        other = generate(shape, 8, tmp_path / "one")
        assert _files(first.root) == _files(second.root)
        assert first.corpus.read_bytes() != other.corpus.read_bytes()


@pytest.fixture(scope="module", params=list(SHAPES))
def tiny_workload(request, tmp_path_factory):
    inputs = generate(tiny(SHAPES[request.param]), 3, tmp_path_factory.mktemp("cache"))
    return inputs, expected_output(inputs), tmp_path_factory.mktemp("run")


def test_tiny_run_passes_output_check(tiny_workload):
    inputs, expected, workdir = tiny_workload
    rep = run.run_rep(inputs, expected, workdir, trace=False)
    assert rep.ok, rep.detail
    assert 0 < rep.setup_s < rep.wall_s
    assert rep.peak_rss_mb > 0
    metrics = run.end_to_end(inputs, [rep])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_tiny_traced_run_reports_every_layer_metric(tiny_workload):
    inputs, expected, workdir = tiny_workload
    rep = run.run_rep(inputs, expected, workdir, trace=True)
    assert rep.ok, rep.detail
    plain = run.run_rep(inputs, expected, workdir, trace=False)
    metrics = run.traced(inputs, [plain], [rep])
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for span in EXPECTED_SPANS[inputs.shape.name]:
        layer = span.partition(".")[0]
        assert metrics[f"{layer}.self_s"] > 0, span
    if inputs.shape.name == "correlate_long":
        assert metrics["basemetrics.meteor_inexact"] > 0
        assert metrics["postag.tag_calls"] == 3 * inputs.shape.sets


def test_tampered_output_counts_as_failed(tiny_workload):
    inputs, expected, workdir = tiny_workload
    tampered = expected.replace(b"0", b"1", 1)
    rep = run.run_rep(inputs, tampered, workdir, trace=False)
    assert not rep.ok
    assert "differs" in rep.detail
    good = run.run_rep(inputs, expected, workdir, trace=False)
    with pytest.raises(run.BenchError):
        run.end_to_end(inputs, [rep])
    result = run.end_to_end(inputs, [rep, good])
    assert result["wall_s"] == good.wall_s


def _package_bindings() -> dict:
    import posscore.cli  # noqa: F401  (loads every module)

    out = {}
    for name, module in sys.modules.items():
        if name == "posscore" or name.startswith("posscore."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if type(value) is dict:
                    for k2, v2 in value.items():
                        if isinstance(v2, FunctionType):
                            out[(name, key, k2)] = v2
    return out


def test_instruments_restore_every_binding():
    from posscore import Token, bleu_n

    before = _package_bindings()
    tracer = Tracer()
    assert sys.modules["posscore.cli"].meteor is not before[("posscore.cli", "meteor")]
    assert sys.modules["posscore.cli"].COMMANDS["score"] is not before[("posscore.cli", "cmd_score")]
    tracer.restore()
    assert _package_bindings() == before

    hook = SetupHook()
    assert sys.modules["posscore.basemetrics"].porter_stem is before[("posscore.basemetrics", "porter_stem")]
    sys.modules["posscore.cli"].bleu_n([Token("a")], [Token("a")], 1)
    assert hook.fired_at is not None
    assert _package_bindings() == before  # the hook removed itself when it fired
    hook.restore()
    assert bleu_n is before[("posscore", "bleu_n")]


def test_missing_span_fails_loudly():
    names = np.array(["cli.main", "embed.load_vec"])
    spans = {
        "names": names,
        "name_id": np.array([0, 1], dtype=np.int32),
        "parent": np.array([-1, 0], dtype=np.int32),
        "start": np.array([0.0, 0.1]),
        "end": np.array([1.0, 0.2]),
    }
    with pytest.raises(TraceError, match="never fired"):
        layer_metrics("embed_large", spans, {}, {"vec_rows": 1})
