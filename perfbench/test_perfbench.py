"""Self-tests of the benchmark: inputs follow the seed, traced counts repeat
exactly, wrong answers are caught, and the printed metrics are the ones
BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _worker(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        input=stdin, capture_output=True, text=True, env=ENV, cwd=HERE, timeout=300, check=True,
    )
    return proc.stdout


def _declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_seed_selects_inputs():
    a = json.loads(_worker("setup", "tangent_moved", "3"))
    assert json.loads(_worker("setup", "tangent_moved", "3")) == a
    b = json.loads(_worker("setup", "tangent_moved", "4"))
    assert [x["text"] for x in a] != [x["text"] for x in b]
    assert [(x["n"], x["kind"]) for x in a] == [(x["n"], x["kind"]) for x in b]


def test_traced_counts_repeat_for_a_seed():
    for workload in ("classify_moved", "limit_probe_moved"):
        inputs = json.loads(_worker("setup", workload, "5"))[:2]
        stdin = json.dumps(inputs)
        first = json.loads(_worker("pass", workload, "1", stdin=stdin))
        second = json.loads(_worker("pass", workload, "1", stdin=stdin))
        assert first["failed"] == second["failed"] == 0
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in (first, second)]
        assert counts[0] == counts[1]
        assert counts[0]["groebner.buchberger.block.calls"] > 0
        units = {k: run._layer_unit(k) for k in list(first["layers"]) + ["trace.overhead_s"]}
        assert units == _declared("per_layer")


def test_wrong_answer_is_counted():
    inputs = json.loads(_worker("setup", "classify_moved", "5"))[:1]
    inputs[0]["kind"] = "II" if inputs[0]["kind"] != "II" else "I"
    out = json.loads(_worker("pass", "classify_moved", "0", stdin=json.dumps(inputs)))
    assert out["ops"] == 1 and out["failed"] == 1


def test_timed_loop_brackets_every_op_with_reference():
    inputs = _worker("setup", "tangent_moved", "5")
    out = json.loads(_worker("timed", "tangent_moved", "1", stdin=inputs))
    assert out["ops"] >= 1 and out["failed"] == 0
    assert len(out["latencies_s"]) == len(out["cpu_times_s"]) == out["ops"]
    assert len(out["reference_s"]) == out["ops"] + 1
    assert all(wall > 0 and cpu > 0 for wall, cpu in out["reference_s"])


def test_end_to_end_metrics_match_declaration():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify_moved",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify_moved",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
