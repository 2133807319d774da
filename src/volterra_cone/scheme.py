"""Cone-preserving weak second-order scheme for the multifactor square-root model.

The time step is a Strang composition: half an exact linear-drift step, a
moment-matched three-point jump of the aggregate, and another half drift
step.  Both pieces map the state-space cone into itself, so the composition
does as well, which keeps every square-root argument non-negative along the
whole simulation.  One batched step kernel serves the simulator in
u = Q (v - shift) (:class:`TransformedDynamics`), where the state is stored
as (N, paths) and the jump moves only the u_N row.  The kernel checks only
the aggregate at every step; the cone audit and the probability screen run
once per batch of steps.  Blocks of paths are shared out among forked
worker processes, one per usable CPU.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.typing import NDArray

from .admissible import AdmissibleMatrix
from .cone import MEMBERSHIP_TOL, ConeDomain, contains, original, transformed
from .model import ModelParams, TransformedDynamics

Array = NDArray[np.float64]

#: spread constant of the three-point law
SPREAD = (3.0 + math.sqrt(3.0)) / 4.0
#: probabilities outside [0, 1] by more than this are counted as audit violations
PROB_SLACK = 1e-12
#: widest block of paths a worker marches at once, so memory does not grow with the batch:
#: each path holds a generator (~1 KB) and its chunk of uniforms
BLOCK_PATHS = 10_000
#: most uniforms a path draws per generator call, which amortizes the call's ~1.6 us
CHUNK_STEPS = 512
#: most uniforms held at once by the chunk and tile of each worker's block (32 MB), which
#: shortens wide chunks; W workers hold up to W times this
CHUNK_DRAWS = 1 << 22
#: scratch bytes of the per-step states and probabilities a block marches before it audits them
#: (512 KB, so they stay in cache): 13 steps at 1 000 paths of N = 2, one at BLOCK_PATHS
BATCH_BYTES = 1 << 19
#: paths drawn into a contiguous (paths, steps) tile before it is copied into the chunk as
#: one transposed block (at most 512 KB, so it stays in cache)
DRAW_TILE = 128
#: constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, stream-stable)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ThreePointLaw:
    """Discrete law on three support points matching the first three moments.

    For aggregate x and variance budget z the target moments are
    m1 = x, m2 = x^2 + x z, m3 = x^3 + 3 x^2 z + 1.5 x z^2.
    """

    x1: float
    x2: float
    x3: float
    p1: float
    p2: float
    p3: float

    @property
    def support(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    def moments(self) -> tuple[float, float, float]:
        pts = np.array(self.support)
        pr = np.array(self.probabilities)
        return (float(pr @ pts), float(pr @ pts**2), float(pr @ pts**3))


def _law_scalars(z: float) -> tuple | None:
    """The scalars of :func:`_law_rows` for budget z (None for z = 0) as 0-d float64 arrays.

    A ufunc takes a 0-d array faster than a Python float of the same value.
    """
    c = SPREAD + 0.75
    return None if z == 0.0 else tuple(map(np.array, (
        3.0, c * c * z, math.sqrt(z), SPREAD * z, c * z, (2.0 * SPREAD - 1.5) * z,
        SPREAD * (SPREAD + 1.5) * z, 2.0, SPREAD, z, SPREAD * (1.5 - SPREAD) * z, 0.75 * z, 1.0)))


def _law_rows(x: Array, k: tuple | None, x1: Array, x2: Array, x3: Array, p1: Array,
              p2: Array, p3: Array, s: Array, t: Array) -> None:
    """Rows x1, x2, x3, p1, p2, p3 of the three-point law of each x, in place; s, t are scratch.

    Closed form of the Lagrange weights for the centred moments E[d] = 0 and
    E[d^2] = x z (the support makes the third moment hold), with
    c = SPREAD + 3/4 and s = sqrt(z (3x + c^2 z)).  Every factor is a ratio
    of like magnitudes, so p1 in [1/6, 1], p2 in [0, 2/3] and p3 in [0, 1/6]
    hold to rounding for any x >= 0 and z > 0, and x = 0 gives the point
    mass (1, 0, 0) at x1 = 0.  ``k`` holds the scalars of :func:`_law_scalars`
    for the budget z, None for z = 0: the point mass at x.  The rows are built
    by the operations of the closed-form expressions in their order, so they
    are those of the expressions bit for bit.
    """
    if k is None:  # the point mass at x
        for row, value in zip((x1, x2, x3, p1, p2, p3), (x, x, x, 1.0, 0.0, 0.0)):
            np.copyto(row, value)
        return
    three, ccz, root_z, az, cz, bz, dz, two, spread, z, ez, fz, one = k
    np.multiply(x, three, t)
    np.add(t, ccz, s)
    np.sqrt(s, s)
    np.multiply(s, root_z, s)
    np.add(x, az, x2)  # x + SPREAD z
    np.add(x, cz, x3)
    np.add(x3, s, x3)  # x + c z + s
    np.add(x, bz, x1)
    np.divide(x1, x3, x1)
    np.multiply(x1, x, x1)  # = x + c z - s, rationalized
    np.add(t, dz, t)
    np.multiply(x, two, p2)
    np.divide(p2, t, p2)  # 2 x / (3 x + SPREAD (SPREAD + 3/2) z)
    np.add(s, cz, p3)
    np.multiply(p3, spread, p3)
    np.add(p3, x, p3)
    np.divide(x, p3, p3)
    np.multiply(s, two, t)
    np.divide(z, t, t)
    np.multiply(p3, t, p3)
    np.add(x, ez, t)
    np.add(s, fz, s)
    np.divide(t, s, t)
    np.multiply(p3, t, p3)  # x / (x + SPREAD (c z + s)) * z / (2 s) * (x + SPREAD (3/2 - SPREAD) z) / (s + 3/4 z)
    np.subtract(one, p2, p1)
    np.subtract(p1, p3, p1)


def _audit_probabilities(p1: Array, p2: Array, p3: Array) -> int:
    """Number of probabilities outside [0, 1] by more than PROB_SLACK, NaN included."""
    return sum(p.size - int(np.count_nonzero((p >= -PROB_SLACK) & (p <= 1.0 + PROB_SLACK)))
               for p in (p1, p2, p3))


def three_point_law(x: float, z: float) -> ThreePointLaw:
    """Three-point law for a single aggregate x >= 0 and variance budget z >= 0.

    ValueError when the law overflows (x or z near the largest double).
    """
    x = float(x)
    z = float(z)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"aggregate must be finite and >= 0, got {x}")
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"variance budget must be finite and >= 0, got {z}")
    rows = np.empty((8, 1))
    with np.errstate(all="ignore"):  # an overflow is named below
        _law_rows(np.array([x]), _law_scalars(z), *rows)
    law = rows[:6, 0].tolist()
    if not all(map(math.isfinite, law)):
        raise ValueError(f"the three-point law of x = {x}, z = {z} is not finite: {law}")
    return ThreePointLaw(*law)


def _strang_step(state: Array, out: Array, prop: Array, shift: Array, u: Array,
                 k: tuple | None, law: tuple, work: tuple) -> tuple[float, int]:
    """One Strang step (half drift, jump, half drift) of every column of ``state`` into ``out``.

    ``state`` and ``out`` are (N, paths) with the aggregate in their last row
    (they may be one array), ``(prop, shift)`` is the exact half-step drift
    with ``shift`` of the shape of ``state`` (a column broadcasts, but costs
    more per step), ``u`` holds one uniform per path, ``k`` the law's scalars
    (:func:`_law_scalars`) and ``law`` its eight rows (:func:`_law_rows`).
    ``work`` is scratch: the mid-step state, a view of its last row and a
    mask of one flag per path.  The jump redraws the aggregate from the
    three-point law and moves only the last row.  Returns the lowest
    aggregate before the jump and the number of aggregates clamped to 0 for
    the law; the probabilities are left in ``law`` for the caller's audit.
    """
    mid, agg, below = work
    x1, x2, draw, p1, p2, p3, s, t = law
    np.matmul(prop, state, mid)
    np.add(mid, shift, mid)
    low = float(np.minimum.reduce(agg))
    clamps, x = 0, agg
    if low < 0.0:
        clamps = int(np.count_nonzero(agg < 0.0))
        x = np.maximum(agg, 0.0)
    _law_rows(x, k, *law)
    # draw starts as x3, takes x2 where u < p1 + p2 and then x1 where u < p1
    np.add(p1, p2, s)
    np.less(u, s, below)
    np.putmask(draw, below, x2)
    np.less(u, p1, below)
    np.putmask(draw, below, x1)
    np.subtract(draw, x, draw)
    np.add(agg, draw, agg)
    np.matmul(prop, mid, out)
    np.add(out, shift, out)
    return low, clamps


@dataclass(frozen=True)
class PathConfig:
    """Grid and sampling configuration of a simulation run."""

    T: float
    M: int
    n_paths: int
    seed: int
    record_full: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be finite and > 0, got {self.T}")
        if self.M < 1:
            raise ValueError(f"number of steps must be >= 1, got {self.M}")
        if not 1 <= self.n_paths <= 1 << 32:  # a path index is one 32-bit seed word
            raise ValueError(f"number of paths must be in [1, 2**32], got {self.n_paths}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(eq=False)
class SampleCloud:
    """Recorded transformed states u = Q (v - shift) of a simulation and its cone audit.

    ``transformed`` has shape (n_paths, n_recorded, N) in the coordinates of
    ``domain``, the cone of the model's anchor; states and aggregates are
    derived from it.  The minima and ``n_violations`` (states with a
    coordinate below -MEMBERSHIP_TOL) cover every grid state of the run, not
    only the recorded ones.  They and ``prob_violations`` are taken once per
    batch of steps, and ``sqrt_clamp_count`` at every step; no value depends
    on the batch size.  ``timings`` holds the seconds spent seeding the
    paths' generators (``seed_s``), drawing uniforms (``uniforms_s``) and
    stepping (``steps_s``), summed over the blocks of paths that the
    ``workers`` processes marched.
    """

    transformed: Array
    min_transformed: float
    min_aggregate: float
    n_violations: int
    sqrt_clamp_count: int
    prob_violations: int
    config: PathConfig
    domain: ConeDomain
    timings: dict[str, float]
    workers: int

    @property
    def steps(self) -> NDArray[np.int64]:
        first = 0 if self.config.record_full else self.config.M
        return np.arange(first, self.config.M + 1, dtype=np.int64)

    @property
    def times(self) -> Array:
        return self.steps * (self.config.T / self.config.M)

    @property
    def aggregates(self) -> Array:
        """View of u_N, which equals the aggregate w @ v."""
        return self.transformed[..., -1]

    @property
    def states(self) -> Array:
        """Factor states v = Q^-1 u + shift (:func:`cone.original`), computed on every access."""
        return original(self.domain, self.transformed)

    def audit(self) -> dict:
        return {
            "min_transformed": self.min_transformed,
            "min_aggregate": self.min_aggregate,
            "n_violations": int(self.n_violations),
            "sqrt_clamp_count": int(self.sqrt_clamp_count),
            "prob_violations": int(self.prob_violations),
        }


def _seed_states(seed: int, first: int, last: int) -> NDArray[np.uint64]:
    """Rows ``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for k in first..last-1.

    NumPy's hash run over all k at once: the entropy words (those of seed,
    least significant first, then k, one word for k < 2**32) are hashed into
    a pool of four words, every pool word is mixed into every other, words
    past the pool are mixed into each, and the pool is hashed out into eight
    words.  Only the values depend on k, the sequence of hash constants does
    not, and uint32 arrays wrap as the C arithmetic does.
    """
    words = []
    rest = int(seed)
    while True:
        words.append(np.full(last - first, rest & _MASK32, dtype=np.uint32))
        rest >>= 32
        if not rest:
            break
    words.append(np.arange(first, last, dtype=np.uint64).astype(np.uint32))
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> np.uint32(16)
        return result

    zero = np.zeros(last - first, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    states = np.empty((last - first, 4), dtype=np.uint64)
    for i in range(8):
        value = hashmix(pool[i % _POOL_SIZE], _MULT_B)
        if i % 2:  # words 2j and 2j + 1 are the low and high halves of state j
            states[:, i // 2] |= value.astype(np.uint64) << np.uint64(32)
        else:
            states[:, i // 2] = value
    return states


def _path_generators(seed: int, first: int, last: int) -> list:
    """Generators equal bit for bit to ``np.random.default_rng([seed, k])`` for k in first..last-1.

    Each PCG64 takes its row of :func:`_seed_states` through a minimal
    ``ISeedSequence``, so NumPy's own ``pcg64_set_seed`` sets it up.
    ``numpy.random`` is imported here, so that importing the package does not
    load it.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class HashedState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {dtype}")
            return self.state

    return [Generator(PCG64(HashedState(state))) for state in _seed_states(seed, first, last)]


def _simulate_block(transformed: Array, config: PathConfig, initial: Array, prop: Array,
                    shift: Array, z_budget: float, first: int, last: int) -> dict:
    """March paths first..last-1 in u (aggregate and jump are u_N) into their rows of ``transformed``.

    Path k draws from the generator seeded by (config.seed, k)
    (:func:`_path_generators`), a chunk of steps at a time into a (steps, paths)
    buffer through a tile of DRAW_TILE paths, so a step's uniforms are a
    contiguous row and the draws do not depend on how paths are split.
    Each step of a batch (at least one, at most BATCH_BYTES of states and
    probabilities) is marched into its own slot and checks its aggregate; a
    state that left the cone raises a RuntimeError naming the step.  Each
    batch is then audited at once: the running minima, the violation count,
    the probability screen (exact count by :func:`_audit_probabilities` when
    it fails) and the copy into a full record.  Returns the block's report:
    its :meth:`SampleCloud.audit`, over every grid state of its paths, and
    the seconds spent seeding (``seed_s``), drawing uniforms (``uniforms_s``)
    and stepping (``steps_s``).
    """
    started = time.perf_counter()
    generators = _path_generators(config.seed, first, last)
    seeded = time.perf_counter()
    width = last - first
    held = CHUNK_DRAWS // (width + min(width, DRAW_TILE))
    calls = -(-config.M // max(1, min(config.M, CHUNK_STEPS, held)))  # generator calls per path
    chunk = np.empty((-(-config.M // calls), width))  # the fewest steps that make that many calls
    tile = np.empty((min(width, DRAW_TILE), len(chunk)))
    n = initial.size
    batch = max(1, min(len(chunk), BATCH_BYTES // (8 * (n + 3) * width)))
    slots, probs = np.empty((batch, n, width)), np.empty((batch, 3, width))
    state = np.repeat(initial[:, None], width, axis=1)
    shift = np.repeat(shift[:, None], width, axis=1)
    mid, scratch = np.empty_like(state), np.empty((5, width))
    work = mid, mid[-1], np.empty(width, dtype=bool)
    k = _law_scalars(z_budget)
    laws = [(*scratch[:3], *p, *scratch[3:]) for p in probs]  # p1, p2, p3 in the batch's slot
    recorded = transformed[first:last]
    lows = np.full(n, np.inf)  # running minimum of each coordinate

    def audit(states: Array) -> int:  # (step, path) pairs with a coordinate below -MEMBERSHIP_TOL
        low = np.minimum.reduce(states, axis=(0, 2))
        np.minimum(lows, low, out=lows)
        if np.minimum.reduce(low) >= -MEMBERSHIP_TOL:  # NaN fails this and is counted below
            return 0
        return len(states) * width - int(np.count_nonzero(np.logical_and.reduce(
            states >= -MEMBERSHIP_TOL, axis=1)))

    violations, clamps, bad = audit(state[None]), 0, 0
    if config.record_full:
        recorded[:, 0] = initial
    timings = {"seed_s": seeded - started, "uniforms_s": time.perf_counter() - seeded,
               "steps_s": 0.0}

    for begin in range(0, config.M, chunk.shape[0]):
        drawn = time.perf_counter()
        rows = chunk[:config.M - begin]
        steps = rows.shape[0]
        for start in range(0, width, len(tile)):
            group = generators[start:start + len(tile)]
            for row, generator in zip(tile, group):
                generator.random(out=row[:steps])
            rows[:, start:start + len(group)] = tile[:len(group), :steps].T
        stepped = time.perf_counter()
        for start in range(begin, begin + steps, batch):
            uniforms = rows[start - begin:start - begin + batch]
            for j, (u, out, law) in enumerate(zip(uniforms, slots, laws), start=start):
                low, clamped = _strang_step(state, out, prop, shift, u, k, law, work)
                if not low >= -MEMBERSHIP_TOL:  # NaN is outside the cone too
                    raise RuntimeError(f"aggregate {low} is not >= -{MEMBERSHIP_TOL} at step {j}, "
                                       "state left the cone")
                clamps += clamped
                state = out
            done, p = slots[:len(uniforms)], probs[:len(uniforms)]
            violations += audit(done)
            if not (np.minimum.reduce(p, axis=None) >= -PROB_SLACK
                    and np.maximum.reduce(p, axis=None) <= 1.0 + PROB_SLACK):
                bad += _audit_probabilities(*p.swapaxes(0, 1))
            if config.record_full:
                recorded[:, start + 1:start + len(done) + 1] = done.transpose(2, 0, 1)
        timings["uniforms_s"] += stepped - drawn
        timings["steps_s"] += time.perf_counter() - stepped

    if not config.record_full:
        recorded[:, 0] = state.T
    return {"min_transformed": float(lows.min()), "min_aggregate": float(lows[-1]),
            "n_violations": violations, "sqrt_clamp_count": clamps, "prob_violations": bad,
            **timings}


def _merged(one: dict, other: dict) -> dict:
    """Report of two blocks: the lesser of each ``min_`` entry (NaN if either is), the rest summed."""
    return {key: float(np.minimum(value, other[key])) if key.startswith("min_")
            else value + other[key] for key, value in one.items()}


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.sched_getaffinity`` or ``os.fork`` is missing."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _shared_array(shape: tuple[int, ...]) -> Array:
    """Float array of ``shape`` in an anonymous shared mapping, so forked workers fill it."""
    nbytes = 8 * math.prod(shape)
    try:  # mmap's default flags are MAP_SHARED on Unix; on Windows, which has no fork, none
        buffer = mmap.mmap(-1, nbytes)
    except (OverflowError, OSError) as error:
        raise MemoryError(f"cannot allocate {nbytes} bytes of shared path arrays: {error}") from None
    return np.frombuffer(buffer).reshape(shape)


def process_count(items: int) -> int:
    """W = min(items, usable CPUs): the processes :func:`forked_map` shares ``items`` items among."""
    return min(items, _usable_cpus())


def forked_map(work: Callable, items: list, workers: int) -> Iterator:
    """Yield ``work(item)`` for each of ``items`` in order; item i is computed by process i mod W.

    Process 0 is this one, which computes its items as they fall due.  The
    W - 1 others, forked with ``os.fork`` when the first result is asked for,
    compute theirs in order and send each result, or the exception ``work``
    raised, through a pipe that is read only when the item is due, so the
    first failure in item order is raised, as by one process.  A worker that
    ends without a result (killed, say) is a ChildProcessError naming its exit
    status.  However the generator ends, closed early included, every worker
    is killed and reaped.  W = 1 forks nothing.
    """
    children = []  # (pid, read end of its pipe)
    reaped = None
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as pipe:
                        try:
                            for item in items[worker::workers]:
                                pickle.dump((work(item), None), pipe)
                                pipe.flush()
                        except Exception as error:
                            pickle.dump((None, error), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for index, item in enumerate(items):
            if index % workers == 0:
                yield work(item)
                continue
            pid, pipe = children[index % workers - 1]
            try:
                result, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                status = os.waitpid(pid, 0)[1]
                reaped = pid
                raise ChildProcessError(f"worker {pid} exited with status "
                                        f"{os.waitstatus_to_exitcode(status)} without a report "
                                        f"on item {index}") from None
            if error is not None:
                raise error
            yield result
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid != reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def simulate(
    params: ModelParams,
    matrix: AdmissibleMatrix,
    config: PathConfig,
    initial_state=None,
    require_initial_in_cone: bool = True,
) -> SampleCloud:
    """Simulate independent paths on a uniform grid and audit cone membership.

    Paths run in u = Q (v - shift) on the anchor's cone,
    ``ConeDomain.for_initial_state(matrix, params.v0)``, under the
    :class:`TransformedDynamics` of that domain (so ValueError for a matrix
    failing the row or column condition).
    A non-finite initial state is a ValueError, and so is one that
    :func:`contains` rejects unless ``require_initial_in_cone`` is false.
    The paths are split into contiguous blocks of at most BLOCK_PATHS and
    nearly equal width, which W = min(blocks, usable CPUs) processes march
    (:func:`forked_map`): this one and W - 1 forked workers, which write the
    paths into one array in shared memory.  The failure of the lowest
    failing block is raised; otherwise :func:`_merged` folds the report of
    each block into the cloud's audit and ``timings``, summed over the
    blocks.  Path k draws one uniform per step from the substream seeded
    by (config.seed, k), so the sample cloud is reproducible bit for bit and
    independent of the block size and of W.
    """
    initial = params.v0 if initial_state is None else initial_state
    domain = ConeDomain.for_initial_state(matrix, params.v0)
    dynamics = TransformedDynamics.from_params(params, domain)
    u0 = transformed(domain, initial)
    if require_initial_in_cone and not contains(domain, initial):
        raise ValueError(f"initial state is outside the cone, transformed coordinates {u0}")

    h = config.T / config.M
    prop, forcing = dynamics.propagators(0.5 * h)
    z_budget = dynamics.variance_rate * h

    n_blocks = -(-config.n_paths // BLOCK_PATHS)
    bounds = np.linspace(0, config.n_paths, n_blocks + 1).astype(int).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    workers = process_count(n_blocks)
    shape = (config.n_paths, config.M + 1 if config.record_full else 1, u0.size)
    paths = _shared_array(shape)
    report = reduce(_merged, forked_map(
        lambda block: _simulate_block(paths, config, u0, prop, forcing, z_budget, *block),
        blocks, workers))
    timings = {stage: report.pop(stage) for stage in ("seed_s", "uniforms_s", "steps_s")}
    return SampleCloud(paths, **report, config=config, domain=domain, timings=timings,
                       workers=workers)
