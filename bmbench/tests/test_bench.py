"""Self-tests of the benchmark, on the tiny ladder so they take seconds.

    python3 -m pytest bmbench/tests -q
"""

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import metrics
import run
import workloads
from spans import BUILT, INDEPENDENT, INSERTS, REDUCES, Tracer, check_nesting, self_times

ROOT = Path(__file__).resolve().parents[2]


def _cli_run():
    from bmcircuits import cli

    return cli.run


def _tiny(name, seed=3):
    return workloads.build(name, seed, workloads.TINY_LADDER)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    t.enter("cli", "cmd")  # 0
    t.enter("oracle", "exact_c")  # 1
    t.exit()  # 4
    t.enter("formats", "parse_bm")  # 5
    t.exit()  # 6
    t.exit()  # 10
    assert self_times(t.spans) == [6.0, 3.0, 1.0]
    assert [s[1] for s in t.spans] == [None, 0, 0]
    assert check_nesting(t.spans) is None


def test_nesting_check_rejects_broken_trees():
    inside = [(0, None, "cli", "cmd", 0.0, 10.0), (1, 0, "oracle", "a", 1.0, 4.0)]
    assert check_nesting(inside) is None
    outside = [(0, None, "cli", "cmd", 0.0, 10.0), (1, 0, "oracle", "a", 9.0, 11.0)]
    assert "outside its parent" in check_nesting(outside)
    overlap = inside + [(2, 0, "oracle", "b", 3.0, 5.0)]
    assert "overlaps" in check_nesting(overlap)


def test_eliminator_work_is_charged_to_the_innermost_layer():
    from bmcircuits import circuits, generators, gf2core

    arboricity = importlib.import_module("bmcircuits.arboricity")  # the package re-exports a function

    originals = (circuits.is_circuit, gf2core.Gf2Eliminator.insert, gf2core.BinaryMatroid.__init__)
    triangle = list(generators.complete_matroid(2).elements)
    t = Tracer()
    with t:
        t.enter("cli", "probe")
        assert circuits.is_circuit(triangle)
        assert gf2core.rank(generators.complete_matroid(3)) == 3
        arboricity.can_partition(generators.complete_matroid(3), 3)
        gf2core.Gf2Eliminator().reduce(1)  # called from the cli span itself
        t.exit()
    # is_circuit inserts the 3 triangle vectors into one eliminator, 2 independently
    assert t.elim["circuits"] == [3, 2, 0, 1]
    # rank inserts the 7 vectors of the complete matroid: 3 pivots
    assert t.elim["gf2core"][INSERTS] == 7 and t.elim["gf2core"][INDEPENDENT] == 3
    assert t.elim["arboricity"][INSERTS] > 0 and t.elim["arboricity"][BUILT] > 0
    assert t.elim["cli"][REDUCES] == 1 and t.elim["cli"][INSERTS] == 0
    layers = {(s[2], s[3]) for s in t.spans}
    assert ("generators", "complete_matroid") in layers
    assert ("gf2core", "BinaryMatroid") in layers
    # uninstall puts every original back
    assert originals == (circuits.is_circuit, gf2core.Gf2Eliminator.insert,
                         gf2core.BinaryMatroid.__init__)


def _corrupt(path: Path) -> None:
    """Flip the last bit of the first vector line of an artifact."""
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines[2:], 2) if ln and not ln.startswith("#"))
    lines[i] = lines[i][:-1] + ("1" if lines[i][-1] == "0" else "0")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["peel", "partition", "orbit"])
def test_corrupted_artifact_counts_as_failure(tmp_path, name):
    cli_run = _cli_run()
    workload = _tiny(name)

    def corrupting_cli(argv):
        rc = cli_run(argv)
        _corrupt(Path(argv[argv.index("--out") + 1]))
        return rc

    runner = run.Runner(cli_run, tmp_path)
    runner.set_up(workload)
    assert all(o.failure is None for o in runner.run_pass(workload))
    runner.cli_run = corrupting_cli
    outcomes = runner.run_pass(workload)
    assert all(o.failure is not None for o in outcomes)


def test_missing_artifact_counts_as_failure(tmp_path):
    cli_run = _cli_run()
    workload = _tiny("peel")

    def deleting_cli(argv):
        rc = cli_run(argv)
        Path(argv[argv.index("--out") + 1]).unlink()
        return rc

    runner = run.Runner(cli_run, tmp_path)
    runner.set_up(workload)
    runner.cli_run = deleting_cli
    (outcome,) = runner.run_pass(replace(workload, commands=workload.commands[:1]))
    assert outcome.failure.startswith("unreadable output: FileNotFoundError")


def test_missed_known_value_counts_as_failure(tmp_path):
    runner = run.Runner(_cli_run(), tmp_path)
    workload = _tiny("oracle")
    runner.set_up(workload)
    cmd = workload.commands[0]
    wrong = workloads.Command(cmd.kind, cmd.args, cmd.source, expect={"c": cmd.expect["c"] + 1})
    right, missed = runner.run_pass(replace(workload, commands=(cmd, wrong)))
    assert right.failure is None
    assert "known exact value" in missed.failure


def test_checker_rejects_bad_artifacts():
    ground = frozenset(range(1, 8))  # complete matroid of dimension 3
    good = "circuits 2\ndim 3\n\n001\n010\n011\n\n100\n101\n110\n111\n"
    assert checks.check_artifact("decomposition", ground, 3, good) is None
    overlap = good.replace("circuits 2", "circuits 3") + "\n001\n110\n111\n"
    assert "overlaps" in checks.check_artifact("decomposition", ground, 3, overlap)
    independent = "circuits 1\ndim 3\n\n001\n010\n100\n"
    assert "not a circuit" in checks.check_artifact("decomposition", ground, 3, independent)
    partial = "circuits 1\ndim 3\n\n001\n010\n011\n"
    assert "do not reproduce" in checks.check_artifact("decomposition", ground, 3, partial)
    assert checks.check_artifact("oddcover", frozenset({1, 2, 3}), 3,
                                 partial.replace("circuits", "oddcover")) is None
    assert checks.check_artifact("partition", frozenset({1, 2, 3}), 3, partial.replace(
        "circuits", "indsets")) == "part 0 is not independent"


@pytest.mark.parametrize("name,trace", itertools.product(workloads.WORKLOADS, (False, True)))
def test_tiny_run_reports_every_declared_metric(tmp_path, name, trace):
    runner = run.Runner(_cli_run(), tmp_path)
    m = run.measure(runner, _tiny(name), seconds=0, trace=trace,
                    spans_path=tmp_path / "spans.jsonl")
    res = run.result(m, trace, peak_rss_mb=1.0)
    assert m.problems == [] and res["failed"] == 0 and res["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}
    if trace:
        assert len(m.traced) == 2 and len(m.layer_metrics) == 2
        spans = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert {s["traced_pass"] for s in spans} == {1, 2}
        assert {"id", "parent", "name", "start", "end"} <= set(spans[0])
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_for_one_seed(tmp_path):
    runner = run.Runner(_cli_run(), tmp_path)
    workload = _tiny("peel")
    runner.set_up(workload)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        runner.run_pass(workload, tracer)
        layer = metrics.traced_pass(tracer)
        counts.append({k: layer[k] for k in metrics.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["circuits.lfc_calls"] > 0 and counts[0]["gf2core.matroid_builds"] > 0


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bmbench", tmp_path / "bmbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bmbench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
