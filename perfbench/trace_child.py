"""Run the volterra-cone CLI with spans around the layer entry points it calls.

Usage: python trace_child.py TRACE_JSON CLI_ARG...

The program is not modified. Before ``cli.main`` runs, the functions that
``volterra_cone.cli`` calls in ``scheme`` and ``pde``, the ``solve`` that
``pde.convergence_study`` calls, and the ``splu`` name that ``pde`` calls
(plus the ``.solve`` of the factor it returns) are replaced by timing
wrappers. Spans are kept in memory and written to TRACE_JSON when the CLI
returns, as a list of {name, parent, start, end, rss0_kb, rss1_kb, attrs};
``parent`` is the index of the enclosing span or null. The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from functools import wraps


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Nested spans of one process, recorded from the main thread only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rss0_kb": _maxrss_kb(),
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss1_kb"] = _maxrss_kb()
            self._stack.pop()


def _describe_cloud(cloud, args) -> dict:
    arrays = [v for v in vars(cloud).values() if hasattr(v, "nbytes")]
    return {
        "path_steps": cloud.config.n_paths * cloud.config.M,
        "cloud_bytes": sum(int(a.nbytes) for a in arrays),
        "n_violations": int(cloud.n_violations),
        "sqrt_clamp_count": int(cloud.sqrt_clamp_count),
        "prob_violations": int(cloud.prob_violations),
    }


def _describe_solve(report, args) -> dict:
    problem = args[0]
    return {
        "n": report.n,
        "unknowns": (problem.n - 1) ** len(problem.box),
        "l2_error": report.l2_error,
        "blow_up": report.blow_up,
    }


class _TracedFactor:
    """SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, factor, tracer: Tracer):
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("scipy.splu.solve"):
            return self._factor.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


def _wrap(tracer: Tracer, name: str, fn, describe=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if describe is not None:
            record["attrs"] = describe(result, args)
        return result

    return traced


def install(tracer: Tracer, cli, pde) -> None:
    """Replace the layer entry points seen by ``cli`` and ``pde`` with spans."""
    traced_solve = _wrap(tracer, "pde.solve", pde.solve, _describe_solve)
    pde.solve = traced_solve
    cli.solve = traced_solve
    cli.simulate = _wrap(tracer, "scheme.simulate", cli.simulate, _describe_cloud)
    cli.mean_oracle = _wrap(tracer, "scheme.mean_oracle", cli.mean_oracle)
    for name in ("convergence_study", "residual_check", "observed_orders"):
        setattr(cli, name, _wrap(tracer, f"pde.{name}", getattr(cli, name)))

    splu = pde.splu

    def traced_splu(*args, **kwargs):
        with tracer.span("scipy.splu"):
            factor = splu(*args, **kwargs)
        return _TracedFactor(factor, tracer)

    pde.splu = traced_splu


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("import"):
            from volterra_cone import cli, pde
        install(tracer, cli, pde)
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
