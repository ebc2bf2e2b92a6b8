"""Tests of the benchmark itself (not part of the repository's test suite):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from pbwkit import extension  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SEED  # noqa: E402


def _terms(elems):
    return [sorted((w, str(s)) for w, s in e.terms.items()) for e in elems]


def test_stream_matches_acceptance_sampler():
    from test_acceptance import _sample
    for seed in (SEED, SEED + 2):
        rng = random.Random(seed)
        for g, elems, _ in islice(gen.stream(seed), 200):
            g2, elems2, _ = _sample(rng)
            assert (g, _terms(elems)) == (g2, _terms(elems2))


def test_benchmark_json_matches_the_emitted_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    emitted = set(tracer.Tracer().metrics()) | set(run.TRACE_EXTRAS)
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_percentile_leaves_ten_timings_beyond():
    for n in (20, 30, 32, 80):
        xs = [float(i * i) for i in range(n)]
        value, pct = run.tail(xs)
        assert sum(x > value for x in xs) == 10 and pct == 100.0 * (n - 10) / n
        assert sum(x > run.nearest_rank(xs, 50) for x in xs) == n // 2


def test_tracer_reproduces_engine_degree_counts():
    """Acceptance item 29 (g = 3): at engine degree 7, 7028 inserts of
    which 3910 reduce to zero, rank 3118, coefficients of 42 bits; 3 bits
    at degree 2."""
    g, elems, P = next(islice(gen.stream(SEED), 29, None))
    tr = tracer.Tracer().install()
    try:
        engine = extension.engine_for(P)
        per_degree = {}
        for n in range(1, 8):
            calls = tr.by_caller[("insert", "extension", "calls")]
            zeros = tr.by_caller[("insert", "extension", "zeros")]
            rank, _, bits = tracer.space_stats(engine.ideal_component(n))
            per_degree[n] = (tr.by_caller[("insert", "extension", "calls")] - calls,
                             tr.by_caller[("insert", "extension", "zeros")] - zeros,
                             rank, bits)
    finally:
        tr.uninstall()
    assert per_degree[7] == (7028, 3910, 3118, 42)
    assert per_degree[2][3] == 3
    assert extension.engine_for.__name__ == "engine_for"
    assert not hasattr(extension.engine_for, "__wrapped__")


def _counts(proc):
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("  count ")]


def test_two_traced_runs_give_identical_counts():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "gallery-check-fp",
           "--trace", "1"]
    first = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    second = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert _counts(first) and _counts(first) == _counts(second)
    result = json.loads(first.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "gallery-check", "--seed",
           "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
