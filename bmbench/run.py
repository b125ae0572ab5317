"""Seeded end-to-end benchmark of the bmcircuits CLI.

    python3 bmbench/run.py --workload peel --seed 1 --seconds 20 --trace 0

Set-up generates the workload's `.bm` instances with `bmcircuits gen` and runs
one warm-up command; it is repeated and its median reported as `setup_s`.
Then whole passes over the workload's commands run, one command after
another through `bmcircuits.cli.run(argv)` in this single process, until
`--seconds` have passed. Every command is timed from outside `cli.run` and
checked (see checks.py); a command that exits non-zero, prints
`verified: false`, misses a known exact value or writes an artifact the
benchmark's own checker rejects counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` untraced and traced passes alternate: traced passes give the
per-layer metrics (spans and counters, see spans.py), untraced ones the
whole-command times per kind and the tracing overhead. Spans are written to
`.bmbench/spans-<workload>-seed<seed>.jsonl` at the root of the checkout.

The program is imported from `src/` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import metrics
import workloads
from spans import Tracer, check_nesting
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# traced runs repeat [untraced, traced, traced] so counts can be compared between passes
TRACE_CYCLE = (False, True, True)


class SetupError(RuntimeError):
    pass


class Runner:
    """Runs CLI commands in this process, checks each one and scales its time."""

    def __init__(self, cli_run, workdir: Path):
        self.cli_run = cli_run
        self.workdir = workdir
        self.probe = SpeedProbe()

    def _run(self, cmd, tracer: Tracer | None):
        """Run one command from a collected heap; returns its exit code, stdout
        and interval."""
        out = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            if tracer is not None:
                tracer.enter("cli", cmd.label)
            try:
                rc = self.cli_run(cmd.argv(self.workdir))
            except Exception as exc:  # a traceback is a failed command, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.exit()
            end = time.perf_counter()
        return rc, out.getvalue(), start, end

    def _timed(self, commands, tracer: Tracer | None) -> list[checks.Outcome]:
        timed = []
        for cmd in commands:
            self.probe.maybe_sample()
            rc, stdout, start, end = self._run(cmd, tracer)
            self.probe.maybe_sample()
            timed.append((checks.check(cmd, rc, stdout, self.workdir, end - start), start, end))
        self.probe.sample()
        return [replace(o, scale=self.probe.scale(start, end)) for o, start, end in timed]

    def set_up(self, workload: workloads.Workload) -> float:
        """Write every instance with `bmcircuits gen`, then run the warm-up command.

        Returns the set-up time scaled to the reference host speed."""
        self.probe.sample()
        start = time.perf_counter()
        for inst in workload.instances:
            path = self.workdir / f"{inst.name}.bm"
            argv = ["gen", *inst.gen_args, "--out", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli_run(argv)
            if rc != 0:
                raise SetupError(f"{' '.join(argv)} exited with {rc}")
            if inst.core:
                dim, keys = checks.read_bm(path.read_text())
                core = {k << (dim - inst.core) for k in range(1, 1 << inst.core)}
                path.write_text(checks.write_bm(dim, keys ^ core))
        rc, stdout, _, end = self._run(workload.warmup, None)
        self.probe.sample()
        warm = checks.check(workload.warmup, rc, stdout, self.workdir, end - start)
        if warm.failure is not None:
            raise SetupError(f"warm-up {warm.label}: {warm.failure}")
        return (end - start) * self.probe.scale(start, end)

    def run_pass(self, workload, tracer: Tracer | None = None) -> list[checks.Outcome]:
        with tracer if tracer is not None else contextlib.nullcontext():
            return self._timed(workload.commands, tracer)


def _import_cli():
    src = ROOT / "src"
    if not (src / "bmcircuits" / "cli.py").is_file():
        raise SetupError(f"no bmcircuits sources under {src}")
    sys.path.insert(0, str(src))
    from bmcircuits import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SetupError(f"imported {cli.__file__}, not the checkout's sources")
    return cli.run


class Measurement:
    """Everything one run measured, before it is reduced to metrics."""

    def __init__(self):
        self.setup_times: list[float] = []
        self.untraced: list[list[checks.Outcome]] = []
        self.traced: list[list[checks.Outcome]] = []
        self.layer_metrics: list[dict] = []
        self.problems: list[str] = []

    @property
    def passes(self):
        return self.untraced + self.traced

    def failures(self) -> list[checks.Outcome]:
        return [o for p in self.passes for o in p if o.failure is not None]

    def add_traced(self, outcomes, tracer: Tracer) -> None:
        self.traced.append(outcomes)
        problem = check_nesting(tracer.spans)
        if problem is not None:
            self.problems.append(f"traced pass {len(self.traced)}: {problem}")
        self.layer_metrics.append(metrics.traced_pass(tracer, metrics.pass_scale(outcomes)))

    def consistency(self) -> None:
        """Outputs must repeat between passes, and traced counts between traced passes."""
        digests = {tuple(o.digest for o in p) for p in self.passes}
        if len(digests) > 1:
            self.problems.append("outputs differ between passes of one seed")
        for name in metrics.COUNT_METRICS:
            values = {m[name] for m in self.layer_metrics}
            if len(values) > 1:
                self.problems.append(f"{name} differs between traced passes: {sorted(values)}")


def measure(runner: Runner, workload, seconds: float, trace: bool,
            spans_path: Path | None = None) -> Measurement:
    m = Measurement()
    for _ in range(1 if trace else SETUP_REPEATS):
        m.setup_times.append(runner.set_up(workload))
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and TRACE_CYCLE[i % len(TRACE_CYCLE)]
        if traced:
            tracer = Tracer()
            m.add_traced(runner.run_pass(workload, tracer), tracer)
            if spans_path is not None:
                tracer.write(spans_path, traced_pass=len(m.traced))
        else:
            m.untraced.append(runner.run_pass(workload))
        i += 1
        enough = i >= (len(TRACE_CYCLE) if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            break
    m.consistency()
    return m


def result(m: Measurement, trace: bool, peak_rss_mb: float) -> dict:
    if trace:
        # counts repeat exactly between traced passes (checked), so the first pass gives them
        values = {name: m.layer_metrics[0][name] if name in metrics.COUNT_METRICS
                  else metrics.median(d[name] for d in m.layer_metrics)
                  for name in m.layer_metrics[0]}
        per_kind = [metrics.command_times(p) for p in m.untraced]
        values.update({name: metrics.median(d[name] for d in per_kind) for name in per_kind[0]})
        values["trace.overhead_ratio"] = (
            metrics.median(metrics.pass_seconds(p) for p in m.traced)
            / metrics.median(metrics.pass_seconds(p) for p in m.untraced))
        names = [name for name, _, _ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(m.setup_times, m.untraced, peak_rss_mb)
        names = [name for name, _, _ in metrics.END_TO_END]
    failed = len(m.failures())
    return {
        "correct": failed == 0 and not m.problems,
        "attempted": sum(len(p) for p in m.passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]}
                    for name in names},
    }


def digest_lines(m: Measurement, res: dict) -> list[str]:
    """Human summary: per-command outputs of the first pass and the run's totals."""
    lines = []
    for o in m.passes[0]:
        rec = o.record or {}
        shown = {k: rec.get(k) for k in ("circuits", "arboricity", "c", "c2", "a", "branch",
                                         "phase1", "phase2") if rec.get(k) is not None}
        if o.block_sizes is not None:
            shown["block_sizes"] = o.block_sizes
        lines.append(f"# {o.label} [{o.digest}] {json.dumps(shown)}")
    raw = [sum(o.seconds for o in p) for p in m.untraced]
    lines.append(f"# passes: {len(m.untraced)} untraced, {len(m.traced)} traced; "
                 f"command samples: {sum(len(p) for p in m.untraced)}; "
                 f"failed_fraction: {res['failed'] / res['attempted']:.4f}")
    lines.append(f"# unscaled pass seconds: {', '.join(f'{t:.4f}' for t in raw)}; "
                 f"speed scales: {', '.join(f'{metrics.pass_scale(p):.3f}' for p in m.passes)}")
    for o in m.failures():
        lines.append(f"# FAILED {o.label}: {o.failure}")
    lines += [f"# PROBLEM {p}" for p in m.problems]
    lines += [f"# {name} = {v['value']:.6g} {v['unit']}" for name, v in res["metrics"].items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli_run = _import_cli()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bmbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        m = measure(Runner(cli_run, workdir), workload, args.seconds, bool(args.trace),
                    spans_path)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res = result(m, bool(args.trace), peak_rss_mb)
    for line in digest_lines(m, res):
        print(line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
