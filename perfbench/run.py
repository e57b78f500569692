"""Host-normalized benchmark of ``dqkd``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads: certify, identities, simulate, cli (see README.md here). With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` a separate traced run prints the per-layer
metrics instead and writes its spans under ``.perfbench/traces/``. Every
timing is divided by the host-speed factor of the ruler readings taken
around it (``ruler.py``); raw seconds are printed as diagnostics above the
result line. Times are CPU seconds (``ruler.clock``): of this process, and
for the CLI and set-up children, of those children. The process exits
nonzero without a result when ``src/dqkd`` is not next to this directory.
"""

import os

# single-threaded BLAS in this process and in every child, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# setup_s is the median over this many fresh set-up processes
SETUP_REPEATS = 3
# layer replays make this many passes over the workload's own inputs
REPLAY_PASSES = 3
# the tail latency is the highest order statistic with this many ops beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimizer.evals": "count",
    "optimizer.eval_us": "us",
    "optimizer.converged_ratio": "ratio",
    "keyrate.entropy_objective_us": "us",
    "keyrate.closed_form_us": "us",
    "keyrate.build_rho_abe_us": "us",
    "keyrate.s_be_numeric_us": "us",
    "keyrate.final_rate_us": "us",
    "attack.validate_us": "us",
    "attack.sample_valid_us": "us",
    "attack.forward_fidelities_us": "us",
    "attack.realize_ancilla_us": "us",
    "qstate.von_neumann_entropy_8_us": "us",
    "qstate.von_neumann_entropy_16_us": "us",
    "qstate.partial_trace_us": "us",
    "verify.trial_ms": "ms",
    "verify.max_dev_ratio": "ratio",
    "protosim.ns_per_round": "ns",
    "protosim.small_n_op_ms": "ms",
    "protosim.peak_alloc_mb": "MB",
    "cli.modules_imported.keyrate": "count",
    "cli.modules_imported.sweep": "count",
    "cli.modules_imported.simulate": "count",
    "cli.modules_imported.optimize": "count",
    "cli.modules_imported.verify": "count",
    "cli.import_scipy_optimize_ms": "ms",
    "host.ruler_ms": "ms",
    "workload.wall_raw_s": "s",
    "trace.wall_s": "s",
    "trace.span_us": "us",
}


class CheckoutError(RuntimeError):
    """The benchmark is not inside a checkout that holds the dqkd sources."""


def import_dqkd():
    """Import dqkd from this checkout's src/, never from anywhere else."""
    if not (SRC / "dqkd" / "__init__.py").is_file():
        raise CheckoutError(f"no dqkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dqkd

    if Path(dqkd.__file__).resolve().parent != SRC / "dqkd":
        raise CheckoutError(f"dqkd imported from {dqkd.__file__}, not from {SRC}")
    return dqkd


# --------------------------------------------------------------------------
# timing


@dataclass
class LoopResult:
    raw_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    readings: list[dict] = field(default_factory=list)


def timed_loop(run, check, inputs, read_ruler, weights, tracer=None, span_name="op", first_op=0) -> LoopResult:
    """Run each input once, closed loop, with a ruler reading between ops.

    An op fails when ``run`` raises or ``check`` returns a reason (or raises);
    failed ops are counted and their time still recorded. Ops are numbered
    from ``first_op``, in their spans and in the failures.
    """
    from ruler import clock, factors

    res = LoopResult()
    res.readings.append(read_ruler())
    for i, inp in enumerate(inputs, start=first_op):
        out, reason = None, None
        span = tracer.span(span_name, op=i) if tracer is not None else nullcontext()
        t0 = clock()
        try:
            with span:
                out = run(inp)
        except Exception as exc:  # a failed op is a result, not a crash
            reason = f"{type(exc).__name__}: {exc}"
        res.raw_s.append(clock() - t0)
        res.readings.append(read_ruler())
        if reason is None:
            try:
                reason = check(inp, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        res.outputs.append(out)
        if reason is not None:
            res.failures.append((i, reason))
    res.norm_s = [t / f for t, f in zip(res.raw_s, factors(res.readings, weights))]
    return res


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with `beyond` values above it."""
    ordered = sorted(values)
    k = len(ordered) - 1 - beyond
    if k < 0:
        raise ValueError(f"{len(values)} values leave none with {beyond} beyond")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(passes: list[list[float]]) -> dict[str, float]:
    """Normalized wall, median and tail of each pass's op times, and their medians over passes.

    Each figure is computed within a pass; the run reports the median over
    the passes, so a burst of host noise that spans one pass of three does
    not move it.
    """
    tails = [tail(p) for p in passes]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p) for p in passes),
        "op_tail_ms": 1e3 * statistics.median(t for t, _ in tails),
        "tail_pct": tails[0][1],
    }


@dataclass
class Box:
    raw_s: float = 0.0
    factor: float = 1.0

    @property
    def norm_s(self) -> float:
        return self.raw_s / self.factor


class Probe:
    """Times blocks and replayed layer calls, normalized, each inside a span.

    A replayed call that raises is timed like any other and its error kept
    in ``errors`` (layer name, item index, error), which the run prints: a
    layer below a public call may reject an input that the public call
    produced, and that is a finding about the library, not a lost timing.
    """

    def __init__(self, ruler, weights, tracer, op_norm_s: list[float]) -> None:
        self.ruler = ruler
        self.weights = weights
        self.tracer = tracer
        self.op_norm_s = op_norm_s
        self.errors: list[tuple[str, int, str]] = []

    @contextmanager
    def bracket(self, name: str):
        from ruler import clock, factors

        box = Box()
        before = self.ruler.read()
        with self.tracer.span(name):
            t0 = clock()
            yield box
            box.raw_s = clock() - t0
        box.factor = factors([before, self.ruler.read()], self.weights)[0]

    def per_call_us(self, name: str, fn, items: list) -> float:
        """Normalized microseconds per call of fn over the items, 0 if none."""
        if not items:
            return 0.0
        errors = {}
        with self.bracket(name) as box:
            for _ in range(REPLAY_PASSES):
                for i, item in enumerate(items):
                    try:
                        fn(item)
                    except Exception as exc:
                        errors[i] = f"{type(exc).__name__}: {exc}"
        self.errors += [(name, i, reason) for i, reason in errors.items()]
        return 1e6 * box.norm_s / (REPLAY_PASSES * len(items))


def span_cost_us(tracer_cls, count: int = 5000) -> float:
    """Raw microseconds one empty span costs to record."""
    tracer = tracer_cls()
    t0 = time.perf_counter()
    for i in range(count):
        with tracer.span("empty", op=i):
            pass
    return 1e6 * (time.perf_counter() - t0) / count


# --------------------------------------------------------------------------
# set-up


def setup_probe(workload_name: str, seed: int, seconds: float, work_dir: Path) -> int:
    """One set-up, in this fresh process: imports, inputs, one warm-up op of each kind."""
    import_dqkd()
    import workloads

    wl = workloads.make(workload_name, work_dir, SRC)
    for part in range(wl.passes):
        wl.inputs(seed, wl.op_count(seconds), part)
    for inp in wl.warmup_inputs():
        reason = wl.check(inp, wl.run(inp))
        if reason is not None:
            print(f"warm-up failed: {reason}", file=sys.stderr)
            return 1
    return 0


def measure_setup(args, ruler, weights, work_dir: Path) -> tuple[list[float], float]:
    """Raw seconds of SETUP_REPEATS fresh set-up processes, and their speed factor.

    The factor is the median speed of all readings of the set-up phase: one
    before the first process and two after each. A set-up process runs for
    about a second, long enough to average over the host's sub-second speed
    jumps, so a factor from only its two bracketing readings would add noise
    rather than remove it.
    """
    from ruler import clock, speed

    raw, readings = [], [ruler.read()]
    for k in range(SETUP_REPEATS):
        probe_dir = work_dir / f"setup{k}"
        probe_dir.mkdir(parents=True)
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--setup-probe", str(probe_dir),
        ]
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate()
        except BaseException:
            # SIGTERM lets the set-up process stop its own CLI children
            proc.terminate()
            proc.wait()
            raise
        raw.append(clock() - t0)
        readings += [ruler.read(), ruler.read()]
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {stderr.strip()[-300:]}")
    return raw, statistics.median(speed(r, weights) for r in readings)


# --------------------------------------------------------------------------
# the run


def pin_to_current_cpu() -> int | None:
    """Pin this process, and so every child it starts, to the CPU it runs on.

    The ruler then always times the CPU the operations and the set-up and
    CLI children run on; on a 2-vCPU host the two CPUs can differ in speed
    by a third at the same moment. Returns the CPU, or None where the
    current CPU cannot be read.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
    except OSError:
        return None
    cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    t_start = time.perf_counter()
    cpu = pin_to_current_cpu()
    import_dqkd()
    import ruler as ruler_mod
    import workloads
    from spans import Tracer

    work_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, work_dir, SRC)
        count = wl.op_count(args.seconds)
        passes = [wl.inputs(args.seed, count, part) for part in range(wl.passes)]
        inputs = [inp for p in passes for inp in p]
        for inp in wl.warmup_inputs():
            wl.run(inp)
        ruler = ruler_mod.Ruler(wl.weights)
        ruler.read()  # first reading pays for lazy numpy set-up
        setup_inproc_s = time.perf_counter() - t_start
        diag = {"machine": machine_block(), "workload": args.workload, "seed": args.seed,
                "ops": len(inputs), "passes": wl.passes, "pinned_cpu": cpu,
                "setup_inproc_raw_s": setup_inproc_s}

        tracer = Tracer() if args.trace else None
        if not args.trace:
            setup_raw, setup_factor = measure_setup(args, ruler, wl.weights, work_dir)
            diag["setup_raw_s"] = setup_raw
            diag["setup_factor"] = setup_factor

        loops = [
            timed_loop(wl.run, wl.check, p, ruler.read, wl.weights, tracer, f"{wl.name}.op", k * count)
            for k, p in enumerate(passes)
        ]
        failures = [f for loop in loops for f in loop.failures]
        failures += [(-1, reason) for reason in wl.finish(inputs)]
        outputs = [out for loop in loops for out in loop.outputs]
        op_norm_s = [t for loop in loops for t in loop.norm_s]
        ruler_ms = statistics.median(ruler_mod.reading_ms(r) for loop in loops for r in loop.readings)
        wall_raw_s = statistics.median(sum(loop.raw_s) for loop in loops)
        summary = summarize([loop.norm_s for loop in loops])
        diag.update(
            wall_raw_s=wall_raw_s,
            pass_wall_norm_s=[sum(loop.norm_s) for loop in loops],
            pass_tail_ms=[1e3 * tail(loop.norm_s)[0] for loop in loops],
            ruler_ms_median=ruler_ms,
            op_tail=f"p{summary['tail_pct']:.1f} of {count} ops per pass, {TAIL_BEYOND} beyond it, "
            f"median of {wl.passes} pass(es)",
            failures=failures[:5],
        )

        if args.trace:
            probe = Probe(ruler, wl.weights, tracer, op_norm_s)
            values = dict.fromkeys(PER_LAYER, 0.0)  # 0: layer not reached by this workload
            values.update(wl.layers(probe, inputs, outputs))
            values.update({
                "host.ruler_ms": ruler_ms,
                "workload.wall_raw_s": wall_raw_s,
                "trace.wall_s": summary["wall_s"],
                "trace.span_us": span_cost_us(Tracer),
            })
            diag["replay_errors"] = probe.errors
            diag["self_time_s"] = tracer.self_times()
            tracer.write(SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.json")
            metrics = {k: metric(values[k], PER_LAYER[k]) for k in PER_LAYER}
        else:
            if args.workload == "cli":
                peak_kb = wl.child_peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "wall_s": summary["wall_s"],
                "op_p50_ms": summary["op_p50_ms"],
                "op_tail_ms": summary["op_tail_ms"],
                "setup_s": statistics.median(setup_raw) / setup_factor,
                "peak_rss_mb": peak_kb / 1024.0,
            }
            metrics = {k: metric(values[k], END_TO_END[k]) for k in END_TO_END}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for key, val in diag.items():
        print(f"# {key}: {json.dumps(val, default=str)}")
    return {
        "correct": not failures,
        "attempted": len(inputs),
        "failed": len({i for i, _ in failures}),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "identities", "simulate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _exit_on_signal(signum, frame):
    # unwinds through the finally blocks, which stop the children and
    # remove the run's scratch directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        if args.setup_probe is not None:
            return setup_probe(args.workload, args.seed, args.seconds, Path(args.setup_probe))
        result = run(args)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
