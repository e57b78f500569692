"""The four workloads: seeded inputs, one operation, its output check, layer replays.

Every workload is closed-loop, single-process and single-client: the next
operation starts only after the previous one returned. Inputs come only from
the seed; ``dqkd`` sees only the generated inputs. Why each workload exists
is written down in README.md next to this file.

A workload object provides:

- ``weights``: the ruler mix for its resource profile (frozen with the ruler);
- ``passes``: how many passes the timed phase makes, each over its own
  inputs; the run reports the median of each timing over the passes, so a
  burst of host noise that spans one pass does not move the result;
- ``op_cost_s`` and ``min_ops``: nominal seconds per operation, ruler
  included, which turn ``--seconds`` into a fixed operation count per pass,
  and the least count per pass at which every metric of the workload is
  steady;
- ``inputs(seed, count, part)`` and ``warmup_inputs()``: one input per
  operation of pass ``part``, and one input of each kind for set-up;
- ``run(inp)``: the operation, one call into ``dqkd``'s public surface;
- ``check(inp, out)``: None when the output is right, else the reason;
- ``finish(inputs)``: run-level checks after the timed phase;
- ``layers(probe, inputs, outputs)``: per-layer metrics for the traced run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from dqkd import (
    FidelityConstraint,
    ProtocolConfig,
    be_spectrum_closed_form,
    build_rho_abe,
    entropy_objective,
    final_rate,
    forward_fidelities,
    maximize_s_be,
    named_attack,
    partial_trace,
    realize_ancilla,
    run_protocol,
    s_be_numeric,
    sample_valid,
    validate,
    von_neumann_entropy,
)
from dqkd.optimizer import GAP_TOLERANCE
from dqkd.verify import run_verification

# Deviation bound for a binomial count, Bernstein form with L = ln(1/p):
# |k - T p| <= L/3 + sqrt(L^2/9 + 2 L T p (1 - p)). With L = 20 a correct
# simulator exceeds it with probability below 2 e^-20 ~ 4e-9 per estimate,
# about 2e-8 per operation over its five estimates; for large counts it is
# about 6.3 standard errors.
BERNSTEIN_L = 20.0

# The sweep CSV layout documented in the README.
SWEEP_HEADER = ["var", "value", "xi", "e", "r_pa", "r_final", "r_final_raw", "r_bb84", "aborted"]
SWEEP_STEPS = 61


def _golden_stride(count: int) -> int:
    """The integer nearest count / golden ratio that is coprime to count."""
    gen = max(1, round(count / 1.618033988749895))
    while math.gcd(gen, count) != 1:
        gen += 1
    return gen


def _lattice(rng: np.random.Generator, count: int) -> np.ndarray:
    """A randomly shifted rank-1 (Fibonacci) lattice of count points in [0, 1)^2.

    Each coordinate alone hits every 1/count stratum exactly once, so the
    share of points in any band of the region barely moves from seed to seed.
    """
    i = np.arange(count)
    shift = rng.random(2)
    return np.stack(
        [(i / count + shift[0]) % 1.0, (i * _golden_stride(count) / count + shift[1]) % 1.0],
        axis=1,
    )


def _bernstein_ok(successes: int, trials: int, p: float) -> bool:
    if trials == 0:
        return successes == 0
    var = trials * p * (1.0 - p)
    tol = BERNSTEIN_L / 3.0 + math.sqrt(BERNSTEIN_L**2 / 9.0 + 2.0 * BERNSTEIN_L * var)
    return abs(successes - trials * p) <= tol


class Workload:
    name = ""
    weights: dict[str, float] = {}
    passes = 1
    op_cost_s = 1.0
    # at least 21 operations per pass, so the tail (10 ops beyond it) is at
    # or above the median
    min_ops = 21

    def op_count(self, seconds: float) -> int:
        """Operations per pass."""
        return max(self.min_ops, round(seconds / (self.op_cost_s * self.passes)))

    def finish(self, inputs: list) -> list[str]:
        return []


class Certify(Workload):
    """maximize_s_be over the acceptance-claim-4 region."""

    name = "certify"
    weights = {"py": 0.6, "la": 0.4}
    op_cost_s = 0.17
    # ~22 % of the off-edge region costs a plateau of ~320 ms per point; with
    # 100 points ~20 land on it, so the tail (10 ops beyond it) sits inside
    # the plateau whatever the seed. With 75 it fell off the plateau for
    # some seeds, and the tail jumped from ~310 to ~210 ms. The cost of a
    # point varies by ~50 % (standard deviation over mean) with no smooth
    # pattern, so the work of a run varies with the seed by ~5 % at 100
    # points; 150 points bring that to ~4 %.
    min_ops = 150
    # share of points placed on the pinned f01 = 1 edge
    EDGE_SHARE = 0.15

    def inputs(self, seed: int, count: int, part: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng([seed, 1, part])
        out = []
        for a, u in _lattice(rng, count):
            if a >= 1.0 - self.EDGE_SHARE:
                f01 = 1.0
            else:
                f01 = 0.75 + 0.25 * a / (1.0 - self.EDGE_SHARE)
            lo = 1.52 - f01  # u -> 0 puts xi at 0.52, next to the 1/2 boundary
            out.append((float(f01), float(lo + u * (1.0 - lo))))
        rng.shuffle(out)
        return out

    def warmup_inputs(self) -> list[tuple[float, float]]:
        return [(0.9, 0.9)]

    def run(self, inp):
        return maximize_s_be(FidelityConstraint(c0sq=inp[0], cppsq=inp[1]), budget=20000)

    def check(self, inp, out) -> str | None:
        if not out.converged:
            return f"not converged at {inp}"
        if abs(out.gap) > GAP_TOLERANCE:
            return f"gap {out.gap} above {GAP_TOLERANCE} at {inp}"
        return None

    def layers(self, probe, inputs, outputs) -> dict[str, float]:
        evals = sum(o.iterations for o in outputs)
        maximizers = [o.best_params for o in outputs]
        return {
            "optimizer.evals": evals,
            "optimizer.eval_us": 1e6 * sum(probe.op_norm_s) / evals,
            "optimizer.converged_ratio": sum(o.converged for o in outputs) / len(outputs),
            "keyrate.entropy_objective_us": probe.per_call_us("keyrate.entropy_objective", entropy_objective, maximizers),
            "keyrate.closed_form_us": probe.per_call_us("keyrate.be_spectrum_closed_form", be_spectrum_closed_form, maximizers),
            "attack.validate_us": probe.per_call_us("attack.validate", validate, maximizers),
            "attack.forward_fidelities_us": probe.per_call_us("attack.forward_fidelities", forward_fidelities, maximizers),
            "attack.realize_ancilla_us": probe.per_call_us("attack.realize_ancilla", realize_ancilla, maximizers),
        }


class Identities(Workload):
    """run_verification, each operation with its own seed and a fixed trial count."""

    name = "identities"
    weights = {"py": 0.4, "la": 0.6}
    # an operation's cost barely depends on its seed (the tail is ~4 % above
    # the median), so the tail is where host noise shows first; three passes
    # of 100 put it at p90 of each pass and take the median pass
    passes = 3
    op_cost_s = 0.07
    min_ops = 100
    TRIALS = 16
    REPLAY_SAMPLES = 64

    def inputs(self, seed: int, count: int, part: int) -> list[int]:
        rng = np.random.default_rng([seed, 2, part])
        return [int(s) for s in rng.integers(0, 2**62, size=count)]

    def warmup_inputs(self) -> list[int]:
        return [0]

    def run(self, inp):
        return run_verification(trials=self.TRIALS, seed=inp)

    def check(self, inp, out) -> str | None:
        if not out.ok:
            failed = [c.name for c in out.checks if not c.passed]
            return f"verification seed {inp} failed {failed}"
        return None

    def layers(self, probe, inputs, outputs) -> dict[str, float]:
        # replay the layers below run_verification on attacks sampled from
        # the operations' own seeds, half symmetric and half not
        draws = [
            (seed + j, bool(j % 2))
            for seed in inputs[: self.REPLAY_SAMPLES // 4]
            for j in range(4)
        ]
        attacks = [sample_valid(s, symmetric=sym) for s, sym in draws]
        asymmetric = [a for a in attacks if not a.symmetric]
        bundles = [build_rho_abe(a) for a in attacks]
        dev_ratio = max(
            c.max_deviation / c.tolerance for out in outputs for c in out.checks
        )
        return {
            "verify.trial_ms": 1e3 * sum(probe.op_norm_s) / (len(outputs) * self.TRIALS),
            "verify.max_dev_ratio": dev_ratio,
            "attack.sample_valid_us": probe.per_call_us(
                "attack.sample_valid", lambda d: sample_valid(d[0], symmetric=d[1]), draws
            ),
            "attack.validate_us": probe.per_call_us("attack.validate", validate, attacks),
            "attack.forward_fidelities_us": probe.per_call_us("attack.forward_fidelities", forward_fidelities, attacks),
            "attack.realize_ancilla_us": probe.per_call_us("attack.realize_ancilla", realize_ancilla, attacks),
            "keyrate.build_rho_abe_us": probe.per_call_us("keyrate.build_rho_abe", build_rho_abe, attacks),
            "keyrate.s_be_numeric_us": probe.per_call_us("keyrate.s_be_numeric", s_be_numeric, asymmetric),
            "qstate.von_neumann_entropy_8_us": probe.per_call_us(
                "qstate.von_neumann_entropy", von_neumann_entropy, [b.rho_be for b in bundles]
            ),
            "qstate.von_neumann_entropy_16_us": probe.per_call_us(
                "qstate.von_neumann_entropy", von_neumann_entropy, [b.rho_abe for b in bundles]
            ),
            "qstate.partial_trace_us": probe.per_call_us(
                "qstate.partial_trace", lambda r: partial_trace(r, keep=(1, 2)), [b.rho_abe for b in bundles]
            ),
        }


class Simulate(Workload):
    """run_protocol on a seeded mix of attacks, backward noise and sizes."""

    name = "simulate"
    weights = {"py": 0.2, "np": 0.8}
    passes = 3
    op_cost_s = 0.08
    min_ops = 100
    ATTACKS = ("identity", "measure_z", "measure_x", "symmetric")
    N_MIN = 10_000
    N_MAX = 2_000_000

    def inputs(self, seed: int, count: int, part: int) -> list[dict]:
        rng = np.random.default_rng([seed, 3, part])
        # stratified log-uniform sizes; the smallest and largest are pinned
        # so the per-round figures and the peak memory are taken at fixed n
        u = (np.arange(count) + rng.random(count)) / count
        sizes = np.rint(self.N_MIN * (self.N_MAX / self.N_MIN) ** u).astype(int)
        sizes[0], sizes[-1] = self.N_MIN, self.N_MAX
        # a fixed interleaving of the strata: an operation's time depends on
        # the sizes the allocator saw just before it, so every run walks the
        # sizes in the same order and only the jitter within strata changes
        stride = _golden_stride(count)
        out = []
        for k in range(count):
            stratum = k * stride % count
            attack = self.ATTACKS[stratum % len(self.ATTACKS)]
            out.append(
                {
                    "attack": attack,
                    "e": float(rng.uniform(0.0, 0.3)) if attack == "symmetric" else None,
                    "backward_noise": float(rng.uniform(0.0, 0.1)),
                    "n": int(sizes[stratum]),
                    "seed": int(rng.integers(0, 2**31)),
                }
            )
        return out

    def warmup_inputs(self) -> list[dict]:
        return [
            {"attack": a, "e": 0.1 if a == "symmetric" else None, "backward_noise": 0.05, "n": self.N_MIN, "seed": 0}
            for a in self.ATTACKS
        ]

    @staticmethod
    def config(inp: dict) -> ProtocolConfig:
        return ProtocolConfig(
            attack=named_attack(inp["attack"], inp["e"]),
            n=inp["n"],
            backward_noise=inp["backward_noise"],
            seed=inp["seed"],
        )

    def run(self, inp):
        return run_protocol(self.config(inp))

    def check(self, inp, out) -> str | None:
        stats, _ = out
        n = inp["n"]
        parts = stats.n_check_consistent + stats.n_check_discarded + stats.n_announced + stats.m
        if parts != n:
            return f"round categories sum to {parts}, not n={n}"
        fids = forward_fidelities(named_attack(inp["attack"], inp["e"]))
        exact = (fids.f0, fids.f1, fids.fplus, fids.fminus)
        b = inp["backward_noise"]
        p_err = sum((1.0 - f) * (1.0 - b) + f * b for f in exact) / 4.0
        trials = {label: 0 for label in ("0", "1", "+", "-")}
        hits = dict(trials)
        for key, count in stats.counts.items():
            prepared, _, outcome = key.split("|")
            trials[prepared] += count
            if outcome == prepared:
                hits[prepared] += count
        for label, p in zip(("0", "1", "+", "-"), exact):
            if not _bernstein_ok(hits[label], trials[label], p):
                return f"f{label} {hits[label]}/{trials[label]} far from exact {p}"
        errors = round(stats.est_e * stats.n_announced)
        if not _bernstein_ok(errors, stats.n_announced, p_err):
            return f"e {errors}/{stats.n_announced} far from exact {p_err}"
        return None

    @staticmethod
    def _bytes(out) -> bytes:
        stats, report = out
        doc = {"stats": stats.to_dict(), "report": report.to_dict()}
        return json.dumps(doc, sort_keys=True).encode()

    def finish(self, inputs: list) -> list[str]:
        # one byte-identical rerun per run, on the run's first input
        first, again = self.run(inputs[0]), self.run(inputs[0])
        if self._bytes(first) != self._bytes(again):
            return [f"rerun of {inputs[0]} is not byte-identical"]
        return []

    def layers(self, probe, inputs, outputs) -> dict[str, float]:
        largest = next(i for i, inp in enumerate(inputs) if inp["n"] == self.N_MAX)
        smallest = [i for i, inp in enumerate(inputs) if inp["n"] == self.N_MIN]
        tracemalloc.start()
        self.run(inputs[largest])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return {
            "protosim.ns_per_round": 1e9 * probe.op_norm_s[largest] / self.N_MAX,
            "protosim.small_n_op_ms": 1e3 * min(probe.op_norm_s[i] for i in smallest),
            "protosim.peak_alloc_mb": peak / 2**20,
        }


class Cli(Workload):
    """Cold ``python -m dqkd.cli`` subprocesses, round-robin over subcommands."""

    name = "cli"
    weights = {"py": 0.7, "la": 0.1, "np": 0.2}
    op_cost_s = 0.52
    KINDS = ("keyrate", "sweep", "simulate", "optimize", "verify")

    def __init__(self, work_dir: Path, src_dir: Path) -> None:
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.child_peak_rss_kb = 0

    def inputs(self, seed: int, count: int, part: int) -> list[dict]:
        rng = np.random.default_rng([seed, 4, part])
        return [self._make(self.KINDS[i % len(self.KINDS)], rng, f"{part}-{i}") for i in range(count)]

    def warmup_inputs(self) -> list[dict]:
        rng = np.random.default_rng(0)
        return [self._make(kind, rng, i) for i, kind in enumerate(self.KINDS)]

    def _make(self, kind: str, rng: np.random.Generator, i: int | str) -> dict:
        out = str(self.work_dir / f"op{i}.{'csv' if kind == 'sweep' else 'json'}")
        if kind == "keyrate":
            xi, e = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 0.11))
            return {"kind": kind, "xi": xi, "e": e, "argv": ["keyrate", "--xi", repr(xi), "--e", repr(e), "--json"]}
        if kind == "sweep":
            stop = float(rng.uniform(0.1, 0.15))
            argv = ["sweep", "--var", "e", "--start", "0", "--stop", repr(stop),
                    "--steps", str(SWEEP_STEPS), "--symmetric", "--out", out]
            return {"kind": kind, "out": out, "argv": argv}
        if kind == "simulate":
            e, n = float(rng.uniform(0.0, 0.3)), int(rng.integers(10_000, 50_001))
            argv = ["simulate", "--attack", "symmetric", "--attack-e", repr(e), "--n", str(n),
                    "--seed", str(int(rng.integers(0, 2**31))), "--out", out]
            return {"kind": kind, "n": n, "out": out, "argv": argv}
        if kind == "optimize":
            f01 = float(rng.uniform(0.75, 1.0))
            fpm = float(rng.uniform(1.52 - f01, 1.0))
            argv = ["optimize", "--f01", repr(f01), "--fpm", repr(fpm), "--out", out]
            return {"kind": kind, "out": out, "argv": argv}
        argv = ["verify", "--trials", "3", "--seed", str(int(rng.integers(0, 2**31)))]
        return {"kind": kind, "argv": argv}

    def spawn(self, argv: list[str], flags: tuple[str, ...] = ()) -> tuple[int, str, str]:
        """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr).

        Output goes to files rather than pipes so the child can be reaped
        with wait4, whose rusage gives this child's own peak RSS.
        """
        out_path, err_path = self.work_dir / "stdout.txt", self.work_dir / "stderr.txt"
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, *flags, "-m", "dqkd.cli", *argv],
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=self.work_dir,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        return (
            proc.returncode,
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"),
        )

    def run(self, inp):
        return self.spawn(inp["argv"])

    def check(self, inp, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"{inp['kind']} exited {code}: {stderr.strip()[-200:]}"
        kind = inp["kind"]
        if kind == "keyrate":
            if json.loads(stdout) != final_rate(inp["xi"], inp["e"]).to_dict():
                return f"keyrate output differs from final_rate({inp['xi']}, {inp['e']})"
        elif kind == "sweep":
            with open(inp["out"], newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != SWEEP_HEADER or len(rows) != SWEEP_STEPS + 1:
                return f"sweep CSV has header {rows[0]} and {len(rows) - 1} rows"
        elif kind == "simulate":
            stats = json.loads(Path(inp["out"]).read_text(encoding="utf-8"))["stats"]
            parts = sum(stats[k] for k in ("n_check_consistent", "n_check_discarded", "n_announced", "m"))
            if parts != inp["n"]:
                return f"simulate round categories sum to {parts}, not {inp['n']}"
        elif kind == "optimize":
            doc = json.loads(Path(inp["out"]).read_text(encoding="utf-8"))
            if not doc["converged"] or abs(doc["gap"]) > GAP_TOLERANCE:
                return f"optimize did not certify: gap {doc['gap']}"
        return None

    def layers(self, probe, inputs, outputs) -> dict[str, float]:
        out: dict[str, float] = {}
        for kind in self.KINDS:
            inp = next(i for i in inputs if i["kind"] == kind)
            with probe.bracket(f"cli.importtime.{kind}") as box:
                _, _, stderr = self.spawn(inp["argv"], flags=("-X", "importtime"))
            lines = [ln for ln in stderr.splitlines() if ln.startswith("import time:")]
            # the first line is the column header
            out[f"cli.modules_imported.{kind}"] = len(lines) - 1
            if kind == "keyrate":
                cumulative_us = 0
                for ln in lines:
                    fields = [f.strip() for f in ln.split("|")]
                    if fields[-1] == "scipy.optimize":
                        cumulative_us = int(fields[1])
                out["cli.import_scipy_optimize_ms"] = 1e-3 * cumulative_us / box.factor
        sweep_points = []
        for inp in inputs:
            if inp["kind"] == "sweep":
                stop = float(inp["argv"][inp["argv"].index("--stop") + 1])
                sweep_points += [(stop * i / (SWEEP_STEPS - 1),) for i in range(SWEEP_STEPS)]
        out["keyrate.final_rate_us"] = probe.per_call_us(
            "keyrate.final_rate", lambda p: final_rate(1.0 - 2.0 * p[0], p[0]), sweep_points
        )
        return out


NAMES = ("certify", "identities", "simulate", "cli")


def make(name: str, work_dir: Path, src_dir: Path) -> Workload:
    if name == "cli":
        return Cli(work_dir, src_dir)
    return {"certify": Certify, "identities": Identities, "simulate": Simulate}[name]()
