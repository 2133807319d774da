"""The benchmark's tracer still runs on the program and finds what it reads.

``perfbench/trace_child.py`` wraps entry points of ``cli``, ``scheme`` and
``pde`` from outside the program, and ``perfbench/run.py`` reads the spans
and attributes below. A change to the program that breaks either fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_run(tmp_path, *argv):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(trace), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())
    for span in spans:
        assert {"name", "parent", "start", "end", "rss0_kb", "rss1_kb", "attrs"} <= set(span)
    main = [i for i, span in enumerate(spans) if span["name"] == "cli.main"]
    assert len(main) == 1
    return spans, main[0]


def named(spans, name):
    return [span for span in spans if span["name"] == name]


def test_tracer_reads_simulate_and_its_audit_counters(tmp_path):
    spans, main = traced_run(tmp_path, "simulate", "--preset", "fig2", "--T", "1", "--M", "20",
                             "--paths", "4", "--seed", "1", "--out", "cloud.csv")
    assert len(named(spans, "import")) == 1
    (simulate,) = named(spans, "scheme.simulate")
    assert simulate["parent"] == main
    attrs = simulate["attrs"]
    assert attrs["path_steps"] == 80
    assert attrs["cloud_bytes"] > 0
    for counter in ("n_violations", "sqrt_clamp_count", "prob_violations"):
        assert attrs[counter] == 0


def test_tracer_reads_pde_solve_and_superlu(tmp_path):
    spans, main = traced_run(tmp_path, "pde", "--preset", "table1", "--box", "box1", "--n", "8",
                             "--out", "pde.csv")
    (solve,) = named(spans, "pde.solve")
    assert solve["parent"] == main
    assert solve["attrs"]["n"] == 8
    assert solve["attrs"]["unknowns"] == 49
    assert solve["attrs"]["blow_up"] is False
    assert solve["attrs"]["l2_error"] > 0.0
    assert len(named(spans, "scipy.splu")) == 1
    assert len(named(spans, "scipy.splu.solve")) == 8  # one per time step
