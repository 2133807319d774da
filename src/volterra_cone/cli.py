"""Command-line interface: reproducible file-based runs of every subsystem.

Each command reads model parameters from a JSON file or a named preset,
writes its outputs to files, and drops a manifest next to the main output so
the exact run can be repeated bit for bit.

``rerun --verify MANIFEST`` repeats a run and checks each output against
the SHA-256 its manifest records.

Exit codes: 0 success, 2 invalid input, 3 non-admissible matrix,
4 cone-audit failure, 5 statistical failure, 6 blow-up of a stable setup,
7 a verified rerun whose output differs from its manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from collections.abc import Iterator
from contextlib import closing
from pathlib import Path

import numpy as np

from . import __version__
from .admissible import (AdmissibleMatrix, build_canonical, build_q2, build_q3, q3_bounds,
                         q3_defaults)
from .cone import MEMBERSHIP_TOL, ConeDomain, contains, original, transformed
from .model import ModelParams, load_params
from .oracle import mean_oracle
from .pde import PdeProblem, convergence_study, observed_orders, residual_check, solve
from .presets import PDE_BOXES, PRESETS, preset
from .scheme import PathConfig, forked_map, process_count, simulate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONADMISSIBLE = 3
EXIT_CONE_AUDIT = 4
EXIT_STATISTICAL = 5
EXIT_BLOWUP = 6
EXIT_NOT_REPRODUCED = 7


#: every float the CLI writes as text: 17 significant digits round-trip a float64.
#: ``floatfmt.format_g17`` writes the sample cloud's floats with exactly these bytes
FLOAT_FORMAT = "%.17g"
#: most rows of a sample cloud in one chunk, which one export process formats and holds at
#: once.  A row's byte table and the formatter's working arrays take about 2.2 KB while its
#: chunk is built (N = 3): 1 024 rows cut cloud fig3c's export time by about 9 % in one
#: process but raised its peak RSS by 0.9 MB
EXPORT_ROWS = 512


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def _csv_rows(table, lengths) -> bytes:
    """CSV bytes of rows of padded text fields, separated by "," and ended by a newline.

    ``table`` (rows, k, width) uint8 holds the k fields of each row as
    left-aligned text with at least one byte to spare, and ``lengths``
    (rows, k) their lengths.  The byte after each text becomes its
    separator, and a mask of the texts and separators, looked up by length,
    compresses the table row by row into the CSV bytes.
    """
    rows, k, width = table.shape
    ends = np.arange(0, rows * k * width, width).reshape(rows, k) + lengths
    flat = table.reshape(-1)
    flat[ends] = ord(",")
    flat[ends[:, -1]] = ord("\n")
    keep = np.arange(width) <= np.arange(width)[:, None]
    return table[np.take(keep, lengths, axis=0)].tobytes()


def _cloud_csv(cloud) -> tuple[int, Iterator[bytes]]:
    """W, the processes that format the sample cloud, and its CSV bytes: the header, then chunks.

    The rows are path-major, in chunks of at most EXPORT_ROWS: a chunk is a
    block of whole paths when a path has at most EXPORT_ROWS rows, and
    otherwise a near-equal piece of one path.  The chunks are independent,
    and :func:`forked_map` shares them among W = min(chunks, usable CPUs)
    processes, chunk i to process i mod W, and yields them in order.  The
    2N distinct floats per row (v, then u) of a chunk are formatted by one
    ``floatfmt.format_g17`` call into a table of padded fields, ``agg``
    copies the text of u_N, and the ``step`` and ``t`` texts are built once
    per run, before any worker is forked.  v is computed per chunk by
    :func:`original` on a (paths, rows, N) block with more than one row
    unless the record has one: a one-row product rounds differently (BLAS
    gemv against gemm), and this keeps every value equal to
    ``cloud.states``.  Close the generator when the write stops early, so
    the workers are reaped.
    """
    # its tables are built on the first export only, here, so the export workers inherit them
    from .floatfmt import WIDTH, format_g17, pad

    u = cloud.transformed
    n_paths, n_recorded, n = u.shape
    header = (",".join(["path_id", "step", "t", *(f"v_{i + 1}" for i in range(n)),
                        *(f"u_{i + 1}" for i in range(n)), "agg"]) + "\n").encode()
    steps, step_lengths = pad(list(map(str, cloud.steps.tolist())))
    times, time_lengths = pad(list(map(_fmt, cloud.times.tolist())))
    paths_per_chunk = max(1, EXPORT_ROWS // n_recorded)
    n_pieces = -(-n_recorded // EXPORT_ROWS)
    pieces = np.linspace(0, n_recorded, n_pieces + 1).astype(int).tolist()
    chunks = [(first, begin, end) for first in range(0, n_paths, paths_per_chunk)
              for begin, end in zip(pieces[:-1], pieces[1:])]
    workers = process_count(len(chunks))

    def chunk_csv(chunk) -> bytes:
        first, begin, end = chunk
        block = u[first:first + paths_per_chunk, begin:end]
        paths, rows = block.shape[:2]
        chars, value_lengths = format_g17(np.concatenate((original(cloud.domain, block), block),
                                                         axis=-1))
        # fields: path_id, step, t, v_1..v_N, u_1..u_N, agg
        table = np.empty((paths, rows, 2 * n + 4, WIDTH + 1), np.uint8)
        lengths = np.empty(table.shape[:3], np.intp)
        ids, id_lengths = pad(list(map(str, range(first, first + paths))))
        table[:, :, 0, :ids.shape[1]] = ids[:, None]
        lengths[..., 0] = id_lengths[:, None]
        table[:, :, 1, :steps.shape[1]] = steps[begin:end]
        lengths[..., 1] = step_lengths[begin:end]
        table[:, :, 2, :times.shape[1]] = times[begin:end]
        lengths[..., 2] = time_lengths[begin:end]
        table[:, :, 3:-1, :WIDTH] = chars.reshape(paths, rows, 2 * n, WIDTH)
        lengths[..., 3:-1] = value_lengths.reshape(paths, rows, 2 * n)
        table[:, :, -1], lengths[..., -1] = table[:, :, -2], lengths[..., -2]
        del chars, value_lengths  # the table holds the only copy of the texts while compressed
        return _csv_rows(table.reshape(paths * rows, *table.shape[2:]),
                         lengths.reshape(paths * rows, -1))

    def csv():
        yield header
        yield from forked_map(chunk_csv, chunks, workers)

    return workers, csv()


def _write_output(path: str | Path, chunks) -> dict[str, tuple[str, int]]:
    """Write the bytes ``chunks`` to ``path``: {str(Path(path)): (SHA-256 hex digest, size)}.

    The parent directory is created first.  Every output of the CLI is
    written here, so a manifest's digests and sizes are of the bytes as
    written, and each output is keyed by its one normalized spelling.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as fh:
        for data in chunks:
            digest.update(data)
            fh.write(data)
            size += len(data)
            del data  # so the next chunk is built while only one is held
    return {str(path): (digest.hexdigest(), size)}


def _json_text(payload: dict) -> str:
    """Text of every JSON the CLI prints or writes; a non-finite float is a ValueError (RFC 8259)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _print_output(text: str, out: str | None) -> dict[str, tuple[str, int]]:
    """Print ``text`` and write it to ``out`` if given: what :func:`_write_output` returns, or {}."""
    print(text, end="")
    return {} if out is None else _write_output(out, [text.encode()])


def _run(args, argv: list[str]) -> tuple[int, dict[str, tuple[str, int]]]:
    """Run the command of ``args``; its exit code and the digest and size of each output.

    A command returns its exit code and either None or its record: its
    config, the map of each output path to the digest and size
    :func:`_write_output` returned, and its telemetry (timings, worker
    counts, blow-up fields).  A record that lists an output, and only such a
    record, is written to ``<out>.manifest.json`` with the run, the library
    versions, each output's SHA-256 and size, the wall time and the CPU time
    (user + system, of this process and of the workers it reaped), and its
    telemetry enters the manifest as given.
    """
    started, cpu = time.perf_counter(), os.times()
    code, record = args.func(args)
    if record is None or not record[1]:
        return code, {}
    import scipy  # here, for its version only: start-up and --version load no scipy module

    config, written, telemetry = record
    _write_output(f"{Path(args.out)}.manifest.json", [_json_text({
        "command": args.command,
        "argv": argv,
        "config": config,
        "seed": getattr(args, "seed", None),
        "artifact_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "outputs": list(written),
        "sha256": {path: digest for path, (digest, _) in written.items()},
        "bytes": {path: size for path, (_, size) in written.items()},
        "wall_clock_s": time.perf_counter() - started,
        "cpu_clock_s": sum(os.times()[:4]) - sum(cpu[:4]),
        **telemetry,
    }).encode()])
    return code, written


def _resolve(args) -> tuple[ModelParams, AdmissibleMatrix]:
    """The model of ``--params`` or ``--preset`` and the transform matrix of ``--family``.

    Without ``--family`` (or with ``preset``) the matrix is the preset's own,
    and the canonical one for a parameter file.
    """
    if args.preset and args.params:
        raise ValueError("give either --params or --preset, not both")
    if not (args.preset or args.params):
        raise ValueError("either --params FILE or --preset NAME is required")
    params, matrix = preset(args.preset) if args.preset else (load_params(args.params), None)
    family = getattr(args, "family", None)
    if family == "q2":
        return params, build_q2(params.w, params.x, args.q)
    if family == "q3":
        a, b = q3_defaults(params.w)
        return params, build_q3(params.w, params.x, a if args.a is None else args.a,
                                b if args.b is None else args.b)
    if family == "canonical" or matrix is None:
        return params, build_canonical(params.w, params.x)
    return params, matrix


def cmd_build_q(args) -> tuple[int, tuple | None]:
    params, matrix = _resolve(args)
    report = matrix.report()
    written = _write_output(args.out, [_json_text({
        "Q": matrix.Q.tolist(), "Qinv": matrix.Qinv.tolist(), "G": matrix.G.tolist(),
        "report": report.to_dict()}).encode()])
    print(f"admissible={report.admissible} -> {Path(args.out)}")
    return (EXIT_OK if report.admissible else EXIT_NONADMISSIBLE), (
        {"params": params.to_dict()}, written, {})


def cmd_q3_bounds(args) -> tuple[int, tuple | None]:
    params, _ = _resolve(args)
    a_lo, a_hi, b_lo, b_hi = q3_bounds(params.w, params.x)
    a, b = q3_defaults(params.w)
    payload = {
        "a": [a_lo, a_hi],
        "b": [b_lo, b_hi],
        "defaults": {"a": a, "b": b, "a_feasible": bool(a_lo <= a <= a_hi),
                     "b_feasible": bool(b_lo <= b <= b_hi)},
    }
    return EXIT_OK, ({"params": params.to_dict()}, _print_output(_json_text(payload), args.out), {})


def cmd_simulation(args) -> tuple[int, tuple | None]:
    """``simulate`` and ``cloud``, which records every step of each path and not just the last."""
    params, matrix = _resolve(args)
    grid = PRESETS[args.preset][2] if args.preset else (1.0, 1000, 1000)
    horizon, steps, paths = (default if given is None else given
                             for given, default in zip((args.T, args.M, args.paths), grid))
    config = PathConfig(T=horizon, M=steps, n_paths=paths, seed=args.seed,
                        record_full=args.command == "cloud")
    cloud = simulate(params, matrix, config,
                     require_initial_in_cone=not args.allow_nonadmissible)

    exported = time.perf_counter()
    export_workers, chunks = _cloud_csv(cloud)
    with closing(chunks):  # the export workers are reaped however the write ends
        written = _write_output(args.out, chunks)
    timings = {**cloud.timings, "export_s": time.perf_counter() - exported}
    written.update(_print_output(_json_text(cloud.audit()), f"{Path(args.out)}.audit.json"))
    code = EXIT_OK
    if cloud.n_violations > 0 and not args.allow_nonadmissible:
        print(f"cone audit failed: {cloud.n_violations} grid states below "
              f"-{MEMBERSHIP_TOL}", file=sys.stderr)
        code = EXIT_CONE_AUDIT
    return code, ({"T": horizon, "M": steps, "paths": paths, "params": params.to_dict()}, written,
                  {"timings": timings, "workers": cloud.workers, "export_workers": export_workers})


def cmd_mean_check(args) -> tuple[int, tuple | None]:
    params, matrix = _resolve(args)
    if args.paths < 2:
        raise ValueError(f"mean-check needs at least 2 paths for a standard error, got {args.paths}")
    config = PathConfig(T=args.t, M=args.M, n_paths=args.paths, seed=args.seed)
    cloud = simulate(params, matrix, config)
    mc = cloud.aggregates[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic is named below
        mc_mean = float(np.mean(mc))
        se = float(np.std(mc, ddof=1) / np.sqrt(mc.size))
    if not (np.isfinite(mc_mean) and np.isfinite(se)):
        raise ValueError(f"the Monte Carlo mean {mc_mean} or its standard error {se} "
                         f"is not finite")
    exact = float(params.w @ mean_oracle(params, args.t))
    deviation = abs(mc_mean - exact)
    passed = deviation <= (1e-10 * max(1.0, abs(exact)) if params.nu == 0.0 else 3.0 * se)
    payload = {
        "t": args.t,
        "paths": args.paths,
        "mc_mean": mc_mean,
        "exact_mean": exact,
        "stderr": se,
        "deviation": deviation,
        "pass": bool(passed),
    }
    return (EXIT_OK if passed else EXIT_STATISTICAL), (
        {"t": args.t, "M": args.M, "paths": args.paths, "params": params.to_dict()},
        _print_output(_json_text(payload), args.out),
        {"timings": cloud.timings, "workers": cloud.workers})


def cmd_check_domain(args) -> tuple[int, tuple | None]:
    params, matrix = _resolve(args)
    point = np.array([float(v) for v in args.point.split(",")])
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    coords = transformed(domain, point)
    payload = {
        "contains": contains(domain, point),
        "transformed": coords.tolist(),
        "worst_component": float(np.min(coords)),
    }
    _print_output(_json_text(payload), None)
    return EXIT_OK, None


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    if text in PDE_BOXES:
        return PDE_BOXES[text]
    out = []
    for part in text.split(";"):
        lo, hi = part.split(",")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _pde_problem(args, n: int) -> PdeProblem:
    params, matrix = _resolve(args)
    alpha = [float(v) for v in args.alpha.split(",")]
    return PdeProblem(params=params, matrix=matrix, alpha=alpha, beta=args.beta, T=args.T,
                      box=_parse_box(args.box), n=n)


def _pde_rows(reports) -> str:
    """The text of the PDE table: a header, then one line per report."""
    rows = ["n,l2_error,order,blow_up"]
    for rep, order in zip(reports, observed_orders(reports)):
        order_txt = "" if not np.isfinite(order) else _fmt(order)
        rows.append(f"{rep.n},{_fmt(rep.l2_error)},{order_txt},{str(rep.blow_up).lower()}")
    return "\n".join(rows) + "\n"


def _json_float(value: float | None):
    """A float for JSON, with inf and nan spelled as strings (JSON has no such numbers)."""
    return value if value is None or np.isfinite(value) else str(value)


def _blowup_text(reports) -> str:
    return "; ".join(f"n={rep.n} stopped at step {rep.blowup_step} with max|v| "
                     f"{_fmt(rep.blowup_max_abs)}" for rep in reports if rep.blow_up)


def _pde_table(args, problem: PdeProblem, reports, config: dict) -> tuple[int, tuple]:
    """Write and print the PDE table, and return its record.

    Exit 6 when a report blew up on a stable box, one whose last interval
    keeps u_N >= 0.  ``config`` holds the keys of the command's own options.
    The manifest maps each n to its report's ``timings``, ``blowup_step``
    and ``blowup_max_abs``, so ``pde`` writes the one-row case of
    ``pde-convergence``.
    """
    written = _print_output(_pde_rows(reports), args.out)
    code = EXIT_OK
    if problem.box[-1][0] >= 0.0 and any(rep.blow_up for rep in reports):
        print(f"blow-up on a stable box: {_blowup_text(reports)}", file=sys.stderr)
        code = EXIT_BLOWUP
    return code, ({"box": list(problem.box), "alpha": args.alpha, "beta": args.beta, "T": args.T,
                   "params": problem.params.to_dict(), **config},
                  written,
                  {"timings": {rep.n: rep.timings for rep in reports},
                   "blowup_step": {rep.n: rep.blowup_step for rep in reports},
                   "blowup_max_abs": {rep.n: _json_float(rep.blowup_max_abs) for rep in reports}})


def cmd_pde(args) -> tuple[int, tuple | None]:
    problem = _pde_problem(args, args.n)
    residual = residual_check(problem)
    return _pde_table(args, problem, [solve(problem)], {"n": args.n, "residual_check": residual})


def cmd_pde_convergence(args) -> tuple[int, tuple | None]:
    n_list = [int(v) for v in args.n_list.split(",")]
    problem = _pde_problem(args, n_list[0])
    reports = convergence_study(problem, n_list)
    return _pde_table(args, problem, reports, {"n_list": n_list})


def cmd_rerun(args) -> tuple[int, tuple | None]:
    """Repeat the run of a manifest; with ``--verify``, exit 7 unless each output has its digest.

    The run is executed here and its exit code returned, so a verified run
    stops at an error before any output is compared, and the digests compared
    are those of the bytes the run wrote, which its new manifest records.
    """
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
        raise ValueError(f"manifest {args.manifest} has no argv list of strings")
    if argv[:1] == ["rerun"]:
        raise ValueError(f"manifest {args.manifest} reruns a manifest itself")
    expected = manifest.get("sha256")
    if args.verify and not isinstance(expected, dict):
        raise ValueError(f"manifest {args.manifest} has no sha256 map to verify against")
    try:
        run = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error keeps argparse's exit 2
        if exc.code:
            raise
        raise ValueError(f"manifest {args.manifest} asks for help or the version") from None
    if args.verify and getattr(run, "out", None) is None:
        raise ValueError(f"manifest {args.manifest} runs {argv[0]} without --out")
    if args.verify and not expected:
        raise ValueError(f"manifest {args.manifest} lists no digest to verify")
    code, written = _run(run, argv)
    if not args.verify:
        return code, None
    # a manifest written before every output was keyed by str(Path(path)) may list "./q.json"
    digests = {path: digest for path, (digest, _) in written.items()}
    differ = [path for path, digest in expected.items()
              if digests.get(str(Path(path))) != digest]
    for path in differ:
        print(f"rerun differs from {args.manifest}: {path}", file=sys.stderr)
    return (EXIT_NOT_REPRODUCED if differ else code), None


def _add_params_options(sub, family: bool = True) -> None:
    sub.add_argument("--params", help="JSON parameter file")
    sub.add_argument("--preset", choices=list(PRESETS), help="named parameter set")
    if family:
        sub.add_argument("--family", choices=["preset", "canonical", "q2", "q3"],
                         default=None, help="transform matrix family")
        sub.add_argument("--q", type=float, default=1.0, help="q2 family parameter")
        sub.add_argument("--a", type=float, default=None, help="q3 family parameter a")
        sub.add_argument("--b", type=float, default=None, help="q3 family parameter b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-cone",
        description="Cone state spaces, cone-preserving simulation and PDE solves "
                    "for multifactor square-root models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build-q", help="build a transform matrix and report admissibility")
    _add_params_options(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_build_q)

    sub = subs.add_parser("q3-bounds", help="feasibility intervals of the N=3 family")
    _add_params_options(sub, family=False)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_q3_bounds)

    for name, help_text in (
        ("simulate", "simulate paths, audit cone membership and write the last states"),
        ("cloud", "simulate and record full trajectories for scatter plots"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_params_options(sub)
        sub.add_argument("--T", type=float, default=None)
        sub.add_argument("--M", type=int, default=None)
        sub.add_argument("--paths", type=int, default=None)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--allow-nonadmissible", action="store_true",
                         help="report cone violations instead of failing")
        # accepted and ignored: the sim-wide workload of perfbench/run.py passes --threads 2 and
        # would exit 2 without it; it goes when the benchmark is rebuilt (ROADMAP item 1)
        sub.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=cmd_simulation)

    sub = subs.add_parser("mean-check", help="Monte Carlo mean against the exact expectation")
    _add_params_options(sub)
    sub.add_argument("--t", type=float, default=1.0)
    sub.add_argument("--M", type=int, default=1000)
    sub.add_argument("--paths", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, help=argparse.SUPPRESS)  # ignored, as above
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_mean_check)

    sub = subs.add_parser("check-domain", help="cone membership of a state vector")
    _add_params_options(sub)
    sub.add_argument("--point", required=True, help="comma-separated coordinates")
    sub.set_defaults(func=cmd_check_domain)

    for name, help_text in (
        ("pde", "solve the transformed PDE on a truncated box"),
        ("pde-convergence", "error table over a list of resolutions"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_params_options(sub)
        sub.add_argument("--alpha", default="3,4")
        sub.add_argument("--beta", type=float, default=1.6)
        sub.add_argument("--T", type=float, default=2.0)
        sub.add_argument("--box", default="box1",
                         help="box1|box2|box3 or 'lo1,hi1;lo2,hi2'")
        sub.add_argument("--out", required=True)
        if name == "pde":
            sub.add_argument("--n", type=int, default=64)
            sub.set_defaults(func=cmd_pde)
        else:
            sub.add_argument("--n-list", default="4,8,16,32,64,128")
            sub.set_defaults(func=cmd_pde_convergence)

    sub = subs.add_parser("rerun", help="re-execute a run from its manifest")
    sub.add_argument("manifest")
    sub.add_argument("--verify", action="store_true",
                     help="exit 7 unless every output has the SHA-256 the manifest records")
    sub.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)[0]
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONE_AUDIT


if __name__ == "__main__":
    raise SystemExit(main())
