"""Command-line interface: reproducible file-based runs of every subsystem.

Each command reads model parameters from a JSON file or a named preset,
writes its outputs to files, and drops a manifest next to the main output so
the exact run can be repeated bit for bit.

Exit codes: 0 success, 2 invalid input, 3 non-admissible matrix,
4 cone-audit failure, 5 statistical failure, 6 blow-up of a stable setup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .admissible import build_canonical, build_q2, build_q3, check_admissible, q3_bounds
from .cone import ConeDomain, contains, transformed
from .model import ModelParams, load_params
from .pde import PdeProblem, convergence_study, observed_orders, residual_check, solve
from .presets import DEFAULT_GRIDS, FIG3_FAMILY, PDE_BOXES, preset
from .scheme import AGGREGATE_TOL, PathConfig, mean_oracle, simulate

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONADMISSIBLE = 3
EXIT_CONE_AUDIT = 4
EXIT_STATISTICAL = 5
EXIT_BLOWUP = 6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_line(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            parts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        elif isinstance(v, (float, np.floating)):
            parts.append(_fmt(float(v)))
        else:
            parts.append(str(v))
    return ",".join(parts)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, command: str, argv: list[str], config: dict,
                    seed, outputs: list[str], started: float) -> Path:
    manifest_path = Path(str(out) + ".manifest.json")
    _write_json(
        manifest_path,
        {
            "command": command,
            "argv": argv,
            "config": config,
            "seed": seed,
            "artifact_version": __version__,
            "outputs": outputs,
            "wall_clock_s": time.perf_counter() - started,
        },
    )
    return manifest_path


def _resolve_params(args) -> ModelParams:
    if getattr(args, "preset", None):
        return preset(args.preset)[0]
    if getattr(args, "params", None):
        return load_params(args.params)
    raise ValueError("either --params FILE or --preset NAME is required")


def _resolve_matrix(args, params: ModelParams):
    name = getattr(args, "preset", None)
    family = getattr(args, "family", None)
    if family is None or family == "preset":
        if name in FIG3_FAMILY:
            return preset(name)[1]
        return build_canonical(params.w, params.x)
    if family == "canonical":
        return build_canonical(params.w, params.x)
    if family == "q2":
        return build_q2(params.w, params.x, args.q)
    if family == "q3":
        if params.n_factors != 3:
            raise ValueError(f"family q3 needs 3 factors, got {params.n_factors}")
        b_default = params.w[1] / params.w[0]
        a = args.a if args.a is not None else 1.0
        b = args.b if args.b is not None else b_default
        return build_q3(params.w, params.x, a, b)
    raise ValueError(f"unknown family {family!r}")


def cmd_build_q(args, argv: list[str]) -> int:
    started = time.perf_counter()
    params = _resolve_params(args)
    matrix = _resolve_matrix(args, params)
    report = check_admissible(matrix.Q, matrix.w, matrix.x, Qinv=matrix.Qinv)
    out = Path(args.out)
    _write_json(
        out,
        {
            "Q": matrix.Q.tolist(),
            "Qinv": matrix.Qinv.tolist(),
            "G": matrix.G.tolist(),
            "report": report.to_dict(),
        },
    )
    _write_manifest(out, "build-q", argv, {"family": args.family, "q": args.q,
                    "a": args.a, "b": args.b, "params": params.to_dict()},
                    None, [str(out)], started)
    print(f"admissible={report.admissible} -> {out}")
    return EXIT_OK if report.admissible else EXIT_NONADMISSIBLE


def cmd_q3_bounds(args, argv: list[str]) -> int:
    started = time.perf_counter()
    params = _resolve_params(args)
    a_lo, a_hi, b_lo, b_hi = q3_bounds(params.w, params.x)
    b_default = float(params.w[1] / params.w[0])
    payload = {
        "a": [a_lo, a_hi],
        "b": [b_lo, b_hi],
        "defaults": {
            "a": 1.0,
            "b": b_default,
            "a_feasible": bool(a_lo <= 1.0 <= a_hi),
            "b_feasible": bool(b_lo <= b_default <= b_hi),
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        _write_json(out, payload)
        _write_manifest(out, "q3-bounds", argv, {"params": params.to_dict()},
                        None, [str(out)], started)
    return EXIT_OK


def _run_simulation(args, argv: list[str], command: str) -> int:
    started = time.perf_counter()
    params = _resolve_params(args)
    matrix = _resolve_matrix(args, params)
    grid = DEFAULT_GRIDS.get(getattr(args, "preset", None) or "", (1.0, 1000, 1000))
    horizon = args.T if args.T is not None else grid[0]
    steps = args.M if args.M is not None else grid[1]
    paths = args.paths if args.paths is not None else grid[2]
    config = PathConfig(
        T=horizon, M=steps, n_paths=paths, seed=args.seed,
        record_full=(args.record == "full"),
    )
    cloud = simulate(params, matrix, config,
                     require_initial_in_cone=not args.allow_nonadmissible)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = params.n_factors
    header = ["path_id", "step", "t"]
    header += [f"v_{i + 1}" for i in range(n)]
    header += [f"u_{i + 1}" for i in range(n)]
    header += ["agg"]
    states, coords, aggregates = cloud.states, cloud.transformed, cloud.aggregates
    grid_steps, times = cloud.steps, cloud.times
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for path_id in range(coords.shape[0]):
            for rec, step in enumerate(grid_steps):
                row = [path_id, int(step), times[rec]]
                row += list(states[path_id, rec])
                row += list(coords[path_id, rec])
                row += [aggregates[path_id, rec]]
                fh.write(_csv_line(row) + "\n")

    audit = cloud.audit()
    audit_path = Path(str(out) + ".audit.json")
    _write_json(audit_path, audit)
    _write_manifest(out, command, argv,
                    {"T": horizon, "M": steps, "paths": paths,
                     "record": args.record, "params": params.to_dict()},
                    args.seed, [str(out), str(audit_path)], started)
    print(json.dumps(audit))
    if cloud.n_violations > 0 and not args.allow_nonadmissible:
        print(f"cone audit failed: {cloud.n_violations} grid states below "
              f"-{AGGREGATE_TOL}", file=sys.stderr)
        return EXIT_CONE_AUDIT
    return EXIT_OK


def cmd_simulate(args, argv: list[str]) -> int:
    return _run_simulation(args, argv, "simulate")


def cmd_cloud(args, argv: list[str]) -> int:
    return _run_simulation(args, argv, "cloud")


def cmd_mean_check(args, argv: list[str]) -> int:
    started = time.perf_counter()
    params = _resolve_params(args)
    matrix = _resolve_matrix(args, params)
    if args.paths < 2:
        raise ValueError(f"mean-check needs at least 2 paths for a standard error, got {args.paths}")
    config = PathConfig(T=args.t, M=args.M, n_paths=args.paths, seed=args.seed)
    cloud = simulate(params, matrix, config)
    mc = cloud.aggregates[:, -1]
    mc_mean = float(np.mean(mc))
    se = float(np.std(mc, ddof=1) / np.sqrt(mc.size))
    exact = float(params.w @ mean_oracle(params, args.t))
    deviation = abs(mc_mean - exact)
    passed = deviation <= 1e-10 if params.nu == 0.0 else deviation <= 3.0 * se
    payload = {
        "t": args.t,
        "paths": args.paths,
        "mc_mean": mc_mean,
        "exact_mean": exact,
        "stderr": se,
        "deviation": deviation,
        "pass": bool(passed),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        out = Path(args.out)
        _write_json(out, payload)
        _write_manifest(out, "mean-check", argv,
                        {"t": args.t, "M": args.M, "paths": args.paths,
                         "params": params.to_dict()},
                        args.seed, [str(out)], started)
    return EXIT_OK if passed else EXIT_STATISTICAL


def cmd_check_domain(args, argv: list[str]) -> int:
    params = _resolve_params(args)
    matrix = _resolve_matrix(args, params)
    point = np.array([float(v) for v in args.point.split(",")])
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    coords = transformed(domain, point)
    payload = {
        "contains": contains(domain, point),
        "transformed": coords.tolist(),
        "worst_component": float(np.min(coords)),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    if text in PDE_BOXES:
        return PDE_BOXES[text]
    out = []
    for part in text.split(";"):
        lo, hi = part.split(",")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _pde_problem(args, n: int) -> PdeProblem:
    params = _resolve_params(args)
    matrix = _resolve_matrix(args, params)
    alpha = [float(v) for v in args.alpha.split(",")]
    return PdeProblem(
        params=params, matrix=matrix, alpha=alpha, beta=args.beta, T=args.T,
        box=_parse_box(args.box), n=n, time_scheme=args.scheme,
    )


def _stable_box(box) -> bool:
    return box[-1][0] >= 0.0


def _pde_rows(reports) -> list[str]:
    rows = ["n,l2_error,order,blow_up,fallback_upwind,runtime_s"]
    orders = observed_orders(reports)
    for rep, order in zip(reports, orders):
        order_txt = "" if not np.isfinite(order) else _fmt(order)
        rows.append(
            f"{rep.n},{_fmt(rep.l2_error)},{order_txt},"
            f"{'true' if rep.blow_up else 'false'},"
            f"{'true' if rep.fallback_upwind else 'false'},{_fmt(rep.runtime_s)}"
        )
    return rows


def cmd_pde(args, argv: list[str]) -> int:
    started = time.perf_counter()
    problem = _pde_problem(args, args.n)
    residual = residual_check(problem)
    report = solve(problem)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_pde_rows([report])) + "\n")
    _write_manifest(out, "pde", argv,
                    {"box": list(problem.box), "n": args.n, "alpha": args.alpha,
                     "beta": args.beta, "T": args.T, "scheme": args.scheme,
                     "residual_check": residual,
                     "params": problem.params.to_dict()},
                    None, [str(out)], started)
    print(f"n={report.n} l2_error={_fmt(report.l2_error)} blow_up={report.blow_up}")
    if report.blow_up and _stable_box(problem.box):
        print("blow-up on a stable box", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_pde_convergence(args, argv: list[str]) -> int:
    started = time.perf_counter()
    n_list = [int(v) for v in args.n_list.split(",")]
    problem = _pde_problem(args, n_list[0])
    reports = convergence_study(problem, n_list)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = _pde_rows(reports)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_manifest(out, "pde-convergence", argv,
                    {"box": list(problem.box), "n_list": n_list,
                     "alpha": args.alpha, "beta": args.beta, "T": args.T,
                     "scheme": args.scheme,
                     "params": problem.params.to_dict()},
                    None, [str(out)], started)
    print("\n".join(rows))
    stable = _stable_box(problem.box)
    if stable and any(rep.blow_up for rep in reports):
        print("blow-up on a stable box", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_rerun(args, _argv: list[str]) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return main(manifest["argv"])


def _add_params_options(sub) -> None:
    sub.add_argument("--params", help="JSON parameter file")
    sub.add_argument("--preset", choices=["table1", "fig1", "fig2", "fig3a", "fig3b", "fig3c"],
                     help="named parameter set")
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
    _add_params_options(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_q3_bounds)

    for name, help_text in (
        ("simulate", "simulate paths and audit cone membership"),
        ("cloud", "simulate and record full trajectories for scatter plots"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_params_options(sub)
        sub.add_argument("--T", type=float, default=None)
        sub.add_argument("--M", type=int, default=None)
        sub.add_argument("--paths", type=int, default=None)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--record", choices=["terminal", "full"],
                         default="full" if name == "cloud" else "terminal")
        sub.add_argument("--allow-nonadmissible", action="store_true",
                         help="report cone violations instead of failing")
        # accepted and ignored: old command lines and manifests carry it
        sub.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=cmd_simulate if name == "simulate" else cmd_cloud)

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
        sub.add_argument("--scheme", choices=["cn", "ie"], default="cn")
        sub.add_argument("--out", required=True)
        if name == "pde":
            sub.add_argument("--n", type=int, default=64)
            sub.set_defaults(func=cmd_pde)
        else:
            sub.add_argument("--n-list", default="4,8,16,32,64,128")
            sub.set_defaults(func=cmd_pde_convergence)

    sub = subs.add_parser("rerun", help="re-execute a run from its manifest")
    sub.add_argument("manifest")
    sub.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONE_AUDIT


if __name__ == "__main__":
    raise SystemExit(main())
