"""Tests of the benchmark itself: seeded inputs, metric names, tracer
wiring and the output checks.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import worker
import workloads
from blobcat import algebra, cli, enumeration, normal_forms, words
from blobcat.algebra import AlgebraLevel
from tracer import TRACED, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_inputs(name, seed, k=8000):
    return list(itertools.islice(workloads.WORKLOADS[name](seed).inputs(), k))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    assert first_inputs(name, 3) == first_inputs(name, 3)
    assert first_inputs(name, 3) != first_inputs(name, 4)


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric(trace, kind):
    proc = _run("--workload", "sb-table", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 200
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name in want:
        assert f"{name} = " in proc.stdout


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "counts", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "blobcat" or name.startswith("blobcat.")]
    spaces = [m.__dict__ for m in mods] + [
        v for m in mods for k, v in m.__dict__.items() if isinstance(v, dict) and not k.startswith("__")
    ]
    return [(id(ns), key, value) for ns in spaces for key, value in ns.items()]


def test_wrappers_replace_every_binding_and_restore_it():
    before = _bindings()
    originals = {f"{layer}.{fn}": getattr(sys.modules[f"blobcat.{layer}"], fn)
                 for layer, fns in TRACED.items() for fn in fns}
    tracer = Tracer().install()
    try:
        assert algebra.canonical_word is not originals["words.canonical_word"]
        assert normal_forms.is_reduced_fc is not originals["words.is_reduced_fc"]
        assert enumeration.COUNTS[enumeration.CountKind.A] is not originals["enumeration.a_count"]
        for value in (algebra.reduce_word, words.iter_commutation_class, cli.main):
            assert value.__wrapped__ is not None
        tracer.run_op(lambda _: algebra.reduce_word(AlgebraLevel.SYMPLECTIC_BLOB, 3, (1, 0, 2, 1, 3, 2)), None)
        tracer.run_op(lambda _: cli.main(["count", "--n", "3", "--s", "1", "--which", "a"]), None)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    layers = {name: value for name, (value, _) in tracer.metrics().items()}
    assert layers["algebra.reduce_word.calls"] == 1
    assert layers["words.class_members"] > 0
    assert layers["algebra.redex_searches"] > 0
    assert layers["triangles.blobbed_entry.calls"] >= 1  # reached through COUNTS
    assert layers["cli.main.self_s"] > 0
    assert set(layers) | {"trace_overhead_frac"} | set(workloads.SCALING_NAMES) == {
        m["name"] for m in SPEC["per_layer"]
    }


def _ops(workload, inputs):
    return [workload.op(inp) for inp in inputs]


def test_sb_table_check_catches_a_product_outside_the_basis():
    w = workloads.SbTable(1)
    inputs = first_inputs("sb-table", 1, 50)
    outputs = _ops(w, inputs)
    assert w.check(inputs, outputs) == []
    scalar, _ = outputs[7]
    outputs[7] = (scalar, (1, 1))
    assert len(w.check(inputs, outputs)) == 1


def test_random_words_check_and_recorded_digest():
    w = workloads.RandomWords(workloads.RandomWords.DEFAULT_SEED)
    inputs = first_inputs("random-words", w.DEFAULT_SEED, w.DIGEST_OPS)
    outputs = _ops(w, inputs)
    assert w.check(inputs, outputs) == []
    level, n, word = inputs[3]
    outputs[3] = (outputs[3][0], word + word)  # longer than its input, not reduced
    bad = w.check(inputs, outputs)
    assert len(bad) == 2 and "digest" in bad[1]


def test_index_set_check_catches_a_flipped_answer():
    w = workloads.IndexSet(1)
    inputs = [inp for inp in w._pool if inp[1] == 5][:40]
    oracle = workloads._BlockOracle()
    outputs = [oracle.answer(*inp) for inp in inputs]
    assert True in outputs and False in outputs
    assert w.check(inputs, outputs) == []
    outputs[5] = not outputs[5]
    assert len(w.check(inputs, outputs)) == 1


def test_index_set_pool_mixes_basis_and_non_basis_words():
    w = workloads.IndexSet(2)
    oracle = workloads._BlockOracle()
    sample = [inp for inp in w._pool if inp[1] == 5]
    by_level = {level: {oracle.answer(*inp) for inp in sample if inp[0] == level} for level in AlgebraLevel}
    assert all(answers == {True, False} for answers in by_level.values())
    assert {inp[2].count(5) for inp in sample} == set(workloads.IndexSet.AFFINE)


def test_counts_check_catches_a_wrong_count():
    w = workloads.Counts(1)
    inputs = first_inputs("counts", 1, 4)
    outputs = _ops(w, inputs)
    assert w.check(inputs, outputs) == []
    a = next(i for i, argv in enumerate(inputs) if argv[-1] == "a")
    outputs[a] = str(int(outputs[a]) + 1) + "\n"
    assert len(w.check(inputs, outputs)) == 1


def test_op_speeds_follow_the_reference_chunks():
    nominal = calibrate.NOMINAL_CHUNK_S
    times = [nominal] * 10 + [2 * nominal] * 10
    times[3] = 50 * nominal  # a one-off stall is smoothed away
    short_early, short_late, whole_run = calibrate.op_speeds(times, [(4, 4), (15, 15), (0, 20)])
    assert short_early == 1.0 and short_late == 2.0
    assert 1.4 < whole_run < 1.6


class _Spin:
    """A stand-in workload whose ops are long enough to be interrupted."""

    @staticmethod
    def inputs():
        return iter(range(4))

    @staticmethod
    def op(inp):
        return sum(calibrate.chunk() for _ in range(40))

    @staticmethod
    def describe(inp):
        return f"spin {inp}"


def test_calibrated_loop_takes_chunks_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler().start()
    try:
        run = worker.timed_loop(_Spin, 0.0, 4, sampler=sampler)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    spans = list(run["spans"])
    assert len(spans) == 4 and spans[-1][1] >= 4
    assert all(first <= last for first, last in spans)
    assert 0 < sum(run["latencies"]) <= run["wall"]
    assert all(s > 0 for s in calibrate.op_speeds(sampler.times, spans))
