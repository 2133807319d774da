"""End-to-end and per-layer benchmark of the volterra-cone CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs ``python -m volterra_cone`` in child processes with
``PYTHONPATH=src``, as a CLI user would, in a scratch directory under
``perfbench/.work``. Operations repeat, closed loop and one at a time, until
the next one would end after ``--seconds``; timings are medians over them.
While a child runs, this process times a short fixed computation every 50 ms
(see ``probe``), which gauges the shared machine's speed during the operation.
Every operation's exit code and outputs are checked by the workload's oracle,
and its data outputs (never the manifest, which carries a wall clock) are
hashed: every repeat within a run must give the same SHA-256.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json:
wall and CPU (user + sys) time of the operation's children in units of the
reference computation timed during it, their peak RSS, all taken per child from
``os.wait4``, the median wall time of ``--version`` (set-up) and the share
of operations that passed. With ``--trace 1`` untraced and
traced operations alternate; the traced ones run ``trace_child.py``, which
wraps the layer entry points of ``cli``, ``scheme``, ``pde`` and scipy's
``splu`` from outside the program, and the result holds the per-layer
metrics. Traced and untraced outputs must hash the same.

Earlier stdout lines carry the run environment, the workload's reason and
every sample; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: a child that runs longer than this is killed and its operation fails
CHILD_TIMEOUT_S = 120.0
#: set-up is timed this many times per run, after the warm-up import, and the median kept
SETUP_REPEATS = 5
#: operations (with --trace 1: untraced/traced pairs) run even past --seconds
MIN_ROUNDS = 3
#: ufunc rounds of one probe, about 0.75 ms of one core
PROBE_ROUNDS = 100
#: pause between probes; probing takes about 1.5 % of one core while a child runs
PROBE_EVERY_S = 0.05
#: one ``ref``, the unit of the normalised times, is this many probes
PROBES_PER_REF = 2000

#: environment probe; it also warms the byte-code and page caches before timing
ENV_PROBE = """
import json, platform
import numpy, scipy
import volterra_cone.cli

def blas(mod):
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{dep.get('name')} {dep.get('version')}"

print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_numpy": blas(numpy),
    "blas_scipy": blas(scipy),
}))
"""


# ---------------------------------------------------------------- children


_PROBE_ARRAY = np.linspace(0.0, 1.0, 2000)


def probe() -> float:
    """CPU seconds this thread takes for a fixed chain of small-array ufuncs.

    The machine is a few cores of a shared host whose speed drifts by tens of
    percent within seconds and from minute to minute, for CPU time as much as
    for wall time. Probes taken while a child runs slow down with it, so an
    operation's time over the probe time stays put when the host's load
    changes. Small-array ufunc calls, the program's own hot path, tracked the
    operations' times better than a pure-Python loop or a sweep over memory.
    Thread CPU time leaves out the time the probe waits for a core, so a
    child that keeps both cores busy does not slow its own reference.
    """
    start = time.thread_time()
    x = _PROBE_ARRAY
    for _ in range(PROBE_ROUNDS):
        x = np.sqrt(x * 1.0001 + 0.5)
    return time.thread_time() - start


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    probes_s: list[float]
    stdout: str


def run_child(args: list[str], cwd: Path) -> ChildRun:
    """Run ``python ARGS``, probing the machine until it ends.

    The child's own rusage comes from ``os.wait4``.
    ``getrusage(RUSAGE_CHILDREN)`` is not used: its ``ru_maxrss`` is a running
    maximum over every child reaped so far, not the last child's. Even the
    child's own ``ru_maxrss`` starts from this process's peak RSS, which
    Linux carries over at ``exec``, so this process reads outputs a line at a
    time and stays far smaller than any child. The end of the child is seen
    through a pidfd, so waiting between probes does not delay it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    probes = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            while True:
                probes.append(probe())
                if select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    if stderr:
        print(f"[child stderr] {stderr[-400:]}", file=sys.stderr)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        probes_s=probes,
        stdout=out_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------- workloads


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_table(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_terminal_cloud(op: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    audit = _read_json(op / "cloud.csv.audit.json")
    problems = []
    if audit["n_violations"] != 0:
        problems.append(f"n_violations {audit['n_violations']} on an admissible cone")
    if not audit["min_aggregate"] >= 0.0:
        problems.append(f"min_aggregate {audit['min_aggregate']} < 0")
    return problems


def _check_mean(op: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if _read_json(op / "mean.json")["pass"] is not True:
        return ["mean-check reports pass=false"]
    return []


ESCAPE_PATHS, ESCAPE_STEPS = 20, 10_000
ESCAPE_HEADER = "path_id,step,t,v_1,v_2,v_3,u_1,u_2,u_3,agg"


def _check_escape(op: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems = []
    audit = _read_json(op / "cloud.csv.audit.json")
    if not audit["n_violations"] > 0:
        problems.append("the fig3c escape went undetected (n_violations == 0)")
    if not audit["min_aggregate"] >= 0.0:
        problems.append(f"min_aggregate {audit['min_aggregate']} < 0")
    n_cols = ESCAPE_HEADER.count(",") + 1
    n_rows = 0
    unparsed = None
    with open(op / "cloud.csv", encoding="utf-8") as fh:  # a line at a time; see run_child
        header = fh.readline().rstrip("\n")
        if header != ESCAPE_HEADER:
            problems.append(f"header {header!r}")
        for number, line in enumerate(fh, start=2):
            n_rows += 1
            if unparsed:
                continue
            fields = line.rstrip("\n").split(",")
            try:
                if len(fields) != n_cols:
                    raise ValueError(f"{len(fields)} fields")
                int(fields[0]), int(fields[1])
                for field in fields[2:]:
                    float(field)
            except ValueError as exc:
                unparsed = f"line {number} does not parse: {exc}"
    expected_rows = ESCAPE_PATHS * (ESCAPE_STEPS + 1)
    if n_rows != expected_rows:
        problems.append(f"{n_rows} rows, expected {expected_rows}")
    if unparsed:
        problems.append(unparsed)
    return problems


CONV_N = (32, 64, 128, 256)
MIN_ORDER = 1.7


def _check_convergence(op: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows = _csv_table(op / "conv.csv")
    problems = []
    if [int(r["n"]) for r in rows] != list(CONV_N):
        return [f"resolutions {[r['n'] for r in rows]}, expected {list(CONV_N)}"]
    if any(r["blow_up"] != "false" for r in rows):
        problems.append("blow-up on box1")
    if not math.isfinite(float(rows[-1]["l2_error"])):
        problems.append(f"l2_error at n={CONV_N[-1]} is {rows[-1]['l2_error']}")
    order = float(rows[-1]["order"] or "nan")
    if not order >= MIN_ORDER:
        problems.append(f"observed order {order} < {MIN_ORDER} at the finest pair")
    return problems


def _check_box2(op: Path, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if _csv_table(op / "box2.csv")[0]["blow_up"] != "true":
        return ["box2 did not blow up"]
    return []


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments, its oracle and its data outputs."""

    argv: tuple[str, ...]
    check: Callable[[Path, int], list[str]]
    data: tuple[str, ...]


def workload_calls(name: str, seed: int) -> list[Call]:
    """The invocations of one operation; only the simulation seed varies."""
    s = str(seed)
    if name == "sim-narrow":
        return [Call(("simulate", "--preset", "fig2", "--T", "10", "--M", "10000",
                      "--paths", "1000", "--seed", s, "--out", "cloud.csv"),
                     _check_terminal_cloud, ("cloud.csv", "cloud.csv.audit.json"))]
    if name == "sim-wide":
        return [Call(("mean-check", "--preset", "fig2", "--t", "1", "--M", "1000",
                      "--paths", "20000", "--threads", "2", "--seed", s,
                      "--out", "mean.json"),
                     _check_mean, ("mean.json",))]
    if name == "cloud-escape":
        return [Call(("cloud", "--preset", "fig3c", "--allow-nonadmissible",
                      "--T", "10", "--M", str(ESCAPE_STEPS), "--paths", str(ESCAPE_PATHS),
                      "--seed", s, "--out", "cloud.csv"),
                     _check_escape, ("cloud.csv", "cloud.csv.audit.json"))]
    if name == "pde-conv":
        return [Call(("pde-convergence", "--preset", "table1", "--box", "box1",
                      "--n-list", ",".join(map(str, CONV_N)), "--out", "conv.csv"),
                     _check_convergence, ("conv.csv",)),
                Call(("pde", "--preset", "table1", "--box", "box2", "--n", "64",
                      "--out", "box2.csv"),
                     _check_box2, ("box2.csv",))]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- operations


def data_digest(path: Path) -> tuple[bytes, int]:
    """SHA-256 of an output file, without any ``runtime_s`` column (a timing),
    and its number of lines. The file is read a line at a time (see ``run_child``).
    """
    digest = hashlib.sha256()
    n_lines = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        first = header.rstrip(b"\n").split(b",")
        drop = first.index(b"runtime_s") if b"runtime_s" in first else None
        for line in itertools.chain([header], fh):
            n_lines += 1
            if drop is not None:
                fields = line.rstrip(b"\n").split(b",")
                line = b",".join(f for i, f in enumerate(fields) if i != drop) + b"\n"
            digest.update(line)
    return digest.digest(), n_lines


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    ref_s: float
    rss_mb: float
    problems: list[str]
    digest: str
    bytes_written: int
    rows_written: int
    traces: list[list[dict]]


def run_op(calls: list[Call], op: Path, traced: bool, passed: set[str]) -> OpResult:
    """Run one operation in a fresh directory, then hash and check its outputs.

    ``passed`` holds the keys (exit codes and data digest) of operations that
    already passed their oracles in this run. An operation with the same key
    wrote the same bytes, so its oracles are not run again.
    """
    op.mkdir(parents=True)
    children = []
    for i, call in enumerate(calls):
        args = ([str(HERE / "trace_child.py"), str(op / f"trace{i}.json"), *call.argv]
                if traced else ["-m", "volterra_cone", *call.argv])
        children.append(run_child(args, op))
    problems: list[str] = []
    digest = hashlib.sha256()
    n_bytes = n_rows = 0
    traces = []
    try:
        for i, call in enumerate(calls):
            for name in call.data:
                path = op / name
                file_digest, n_lines = data_digest(path)
                digest.update(file_digest)
                n_bytes += path.stat().st_size
                if name.endswith(".csv"):
                    n_rows += n_lines - 1
            if traced:
                traces.append(json.loads((op / f"trace{i}.json").read_text(encoding="utf-8")))
        key = f"{[child.code for child in children]} {digest.hexdigest()}"
        if key not in passed:
            for call, child in zip(calls, children):
                problems += [f"{call.argv[0]}: {p}" for p in call.check(op, child.code)]
            if not problems:
                passed.add(key)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output ({exc!r})")
    shutil.rmtree(op)
    return OpResult(
        wall_s=sum(child.wall_s for child in children),
        cpu_s=sum(child.cpu_s for child in children),
        ref_s=PROBES_PER_REF * statistics.median(
            t for child in children for t in child.probes_s),
        rss_mb=max(child.rss_mb for child in children),
        problems=problems,
        digest=digest.hexdigest(),
        bytes_written=n_bytes,
        rows_written=n_rows,
        traces=traces,
    )


# ---------------------------------------------------------------- layers


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(result: OpResult) -> dict[str, float]:
    """Per-layer numbers of one traced operation, summed over its children."""
    m = dict.fromkeys(
        ["scheme.simulate_s", "scheme.path_steps", "scheme.rss_growth_mb",
         "scheme.cloud_mb", "scheme.n_violations", "scheme.sqrt_clamp_count",
         "scheme.prob_violations", "cli.self_s", "pde.solve_s.n128",
         "pde.solve_s.n256", "pde.unknowns.n256", "pde.l2_error.n256",
         "scipy.splu.factor_s", "scipy.splu.solve_s", "scipy.splu.solves"], 0)
    imports = []
    l2_by_n = {}
    for spans in result.traces:
        main = next((i for i, s in enumerate(spans) if s["name"] == "cli.main"), None)
        if main is None:  # the child failed before the CLI ran; its op failed too
            continue
        layer_calls = sum(_dur(s) for s in spans if s["parent"] == main)
        m["cli.self_s"] += _dur(spans[main]) - layer_calls
        for s in spans:
            name, attrs = s["name"], s["attrs"]
            if name == "import":
                imports.append(_dur(s))
            elif name == "scheme.simulate":
                m["scheme.simulate_s"] += _dur(s)
                m["scheme.rss_growth_mb"] = max(
                    m["scheme.rss_growth_mb"], (s["rss1_kb"] - s["rss0_kb"]) * 1024 / 1e6)
                m["scheme.cloud_mb"] = max(m["scheme.cloud_mb"], attrs["cloud_bytes"] / 1e6)
                for key in ("path_steps", "n_violations", "sqrt_clamp_count",
                            "prob_violations"):
                    m[f"scheme.{key}"] += attrs[key]
            elif name == "pde.solve":
                l2_by_n[attrs["n"]] = attrs["l2_error"]
                if attrs["n"] in (128, 256):
                    m[f"pde.solve_s.n{attrs['n']}"] += _dur(s)
                if attrs["n"] == 256:
                    m["pde.unknowns.n256"] = attrs["unknowns"]
                    m["pde.l2_error.n256"] = attrs["l2_error"]
            elif name == "scipy.splu":
                m["scipy.splu.factor_s"] += _dur(s)
            elif name == "scipy.splu.solve":
                m["scipy.splu.solve_s"] += _dur(s)
                m["scipy.splu.solves"] += 1
    m["import.s"] = statistics.median(imports) if imports else 0.0
    m["scheme.ns_per_path_step"] = (
        1e9 * m["scheme.simulate_s"] / m["scheme.path_steps"] if m["scheme.path_steps"] else 0.0)
    m["cli.bytes_written"] = result.bytes_written
    m["cli.rows_written"] = result.rows_written
    m["cli.export_mb_per_s"] = (
        result.bytes_written / 1e6 / m["cli.self_s"] if m["cli.self_s"] else 0.0)
    m["pde.s_per_step.n256"] = m["pde.solve_s.n256"] / 256
    e128, e256 = l2_by_n.get(128), l2_by_n.get(256)
    m["pde.order.n256"] = math.log2(e128 / e256) if e128 and e256 else 0.0
    return m


#: per-layer values that must repeat exactly between operations of one run
EXACT_VALUES = ("scheme.path_steps", "scheme.n_violations", "scheme.sqrt_clamp_count",
                "scheme.prob_violations", "cli.rows_written", "pde.unknowns.n256",
                "pde.l2_error.n256", "scipy.splu.solves")


# ---------------------------------------------------------------- run


def environment(work: Path) -> dict:
    probe = run_child(["-c", ENV_PROBE], work)
    if probe.code != 0:
        raise RuntimeError(f"the package does not import (exit code {probe.code})")
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env.update(git_commit=commit, source_sha256=source.hexdigest(),
               nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               loadavg_start=os.getloadavg())
    return env


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    calls = workload_calls(workload, seed)
    env = environment(work)
    setup = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            setup.append(run_child(["-m", "volterra_cone", "--version"], work).wall_s)

    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    passed: set[str] = set()
    start = time.perf_counter()
    while True:
        untraced.append(run_op(calls, work / f"op{len(untraced)}", False, passed))
        if trace:
            traced.append(run_op(calls, work / f"op{len(traced)}t", True, passed))
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break

    ops = untraced + traced
    failed = sum(1 for op in ops if op.problems)
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"[op {i} failed] {problem}", file=sys.stderr)
    digests = sorted({op.digest for op in ops})
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        print(f"[determinism] {len(digests)} different output digests in one run",
              file=sys.stderr)

    samples: dict[str, list[float]] = {}
    if trace:
        layers = [layer_metrics(op) for op in traced]
        for key in layers[0]:
            samples[key] = [m[key] for m in layers]
        for key in EXACT_VALUES:
            if len(set(samples[key])) > 1:
                correct = False
                print(f"[determinism] {key} differs between repeats: {samples[key]}",
                      file=sys.stderr)
        samples["trace.overhead_s"] = [
            statistics.median(op.wall_s for op in traced)
            - statistics.median(op.wall_s for op in untraced)]
        samples["untraced.wall_s"] = [op.wall_s for op in untraced]
        samples["untraced.cpu_s"] = [op.cpu_s for op in untraced]
        samples["reference.s"] = [op.ref_s for op in untraced + traced]
        wanted = spec["per_layer"]
    else:
        samples = {
            "wall_ref": [op.wall_s / op.ref_s for op in untraced],
            "cpu_ref": [op.cpu_s / op.ref_s for op in untraced],
            "peak_rss_mb": [op.rss_mb for op in untraced],
            "ok_rate": [1.0 - failed / len(ops)],
            "setup_s": setup,
        }
        wanted = spec["end_to_end"]

    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "digest": digests,
        "samples": {k: summary(v) for k, v in samples.items()},
        "seconds": {k: summary([getattr(op, k) for op in untraced])
                    for k in ("wall_s", "cpu_s", "ref_s")},
    }))
    if sorted(samples) != sorted(m["name"] for m in wanted):
        raise RuntimeError("metrics computed differ from BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(samples[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "volterra_cone" / "cli.py").is_file():
        print(f"error: no volterra_cone package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
