"""Metric names, units and how each is computed from measured passes.

End-to-end metrics come from untraced passes; per-layer metrics from traced
passes, except the whole-command times of the `cli` layer, which come from the
untraced passes of the traced run. Per-layer metrics of a layer a workload
never enters read 0.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from statistics import median

from spans import BUILT, INDEPENDENT, INSERTS, LAYERS, REDUCES, self_times

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cmd_p50_s", "s", "lower"),
    ("cmd_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("output_blocks", "count", "lower"),
)

COMMAND_KINDS = ("decompose", "oddcover", "arboricity", "orbit", "oracle")
_ELIM_LAYERS = ("gf2core", "arboricity", "oracle", "circuits")

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.{name}", unit, better) for layer in _ELIM_LAYERS for name, unit, better in (
        ("elim_inserts", "count", "lower"),
        ("elim_reduces", "count", "lower"),
        ("elims_built", "count", "lower"),
        ("elim_independent_ratio", "ratio", "higher"),
    )]
    + [
        ("gf2core.matroid_builds", "count", "lower"),
        ("gf2core.matroid_build_elements", "count", "lower"),
        ("gf2core.matroid_build_s", "s", "lower"),
        ("gf2core.max_independent_subset_s", "s", "lower"),
        ("gf2core.rank_s", "s", "lower"),
        ("circuits.lfc_calls", "count", "lower"),
        ("circuits.lfc_self_s", "s", "lower"),
        ("circuits.extract_calls", "count", "lower"),
        ("circuits.extract_self_s", "s", "lower"),
        ("circuits.circuit_builds", "count", "lower"),
        ("circuits.is_circuit_s", "s", "lower"),
        ("decompose.phase1_steps", "count", "lower"),
        ("decompose.phase2_steps", "count", "lower"),
        ("arboricity.calls", "count", "lower"),
        ("arboricity.can_partition_calls", "count", "lower"),
        ("arboricity.k_success_ratio", "ratio", "higher"),
        ("arboricity.can_partition_s", "s", "lower"),
        ("oddcover.symdiff_reduce_self_s", "s", "lower"),
        ("oddcover.density_lower_bound_s", "s", "lower"),
        ("oracle.enumerate_s", "s", "lower"),
        ("oracle.circuits_enumerated", "count", "lower"),
        ("oracle.exact_c_self_s", "s", "lower"),
        ("oracle.exact_c2_s", "s", "lower"),
        ("orbit.orbit_decompose_self_s", "s", "lower"),
        ("formats.parse_s", "s", "lower"),
        ("formats.format_s", "s", "lower"),
        ("formats.check_s", "s", "lower"),
        ("formats.bytes_written", "bytes", "lower"),
        ("cli.arboricity_calls_per_oddcover", "ratio", "lower"),
        ("cli.unreported_s", "s", "lower"),
    ]
    + [(f"cli.{kind}_s", "s", "lower") for kind in COMMAND_KINDS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + tuple(PER_LAYER)}
# per-layer counts must repeat exactly between traced passes of one seed
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def pass_seconds(outcomes) -> float:
    return sum(o.scaled_s for o in outcomes)


def pass_scale(outcomes) -> float:
    """Time-weighted mean of the commands' speed scales."""
    return pass_seconds(outcomes) / sum(o.seconds for o in outcomes)


def output_blocks(outcomes) -> int:
    """Circuits and parts in a pass's artifacts, plus the exact c values it computed."""
    return sum(o.record.get("circuits") or o.record.get("c") or 0
               for o in outcomes if o.record is not None)


def command_latencies(passes) -> list[float]:
    """Each command's median time over the passes, one value per command of a pass.

    Taking percentiles over these, rather than over every sample, keeps the
    percentile's position the same however many passes fitted in the run.
    """
    return sorted(median(o.scaled_s for o in same) for same in zip(*passes))


def end_to_end(setup_times, passes, peak_rss_mb) -> dict[str, float]:
    times = command_latencies(passes)
    if len(times) > 1:
        deciles = statistics.quantiles(times, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = times[0]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(pass_seconds(p) for p in passes),
        "cmd_p50_s": p50,
        "cmd_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
        "output_blocks": output_blocks(passes[0]),
    }


def command_times(outcomes) -> dict[str, float]:
    """Whole-command time per CLI command kind, and the part records leave out."""
    out = {f"cli.{kind}_s": 0.0 for kind in COMMAND_KINDS}
    unreported = 0.0
    for o in outcomes:
        out[f"cli.{o.kind}_s"] += o.scaled_s
        if o.record is not None:
            unreported += (o.seconds - (o.record.get("wall_time_s") or 0.0)) * o.scale
    out["cli.unreported_s"] = unreported
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass(tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are multiplied by ``scale``."""
    spans = tracer.spans
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    fn_self: dict[str, float] = defaultdict(float)
    fn_incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    roots: list[int] = []
    for (sid, parent, layer, name, start, end), self_s in zip(spans, own):
        key = f"{layer}.{name}"
        roots.append(sid if parent is None else roots[parent])
        layer_self[layer] += self_s
        fn_self[key] += self_s
        calls[key] += 1
        # inclusive time counts only the outermost of nested calls to one function
        anc = parent
        while anc is not None and f"{spans[anc][2]}.{spans[anc][3]}" != key:
            anc = spans[anc][1]
        if anc is None:
            fn_incl[key] += end - start

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    total = [sum(col) for col in zip(*tracer.elim.values())] or [0, 0, 0, 0]
    for layer in _ELIM_LAYERS:
        c = total if layer == "gf2core" else tracer.elim.get(layer, [0, 0, 0, 0])
        m[f"{layer}.elim_inserts"] = c[INSERTS]
        m[f"{layer}.elim_reduces"] = c[REDUCES]
        m[f"{layer}.elims_built"] = c[BUILT]
        m[f"{layer}.elim_independent_ratio"] = _ratio(c[INDEPENDENT], c[INSERTS])

    counts = tracer.counts
    cover_roots = {sid for sid in roots
                   if spans[sid][3].startswith("oddcover --method arboricity ")}
    in_cover = sum(1 for s in spans if s[3] == "arboricity" and s[2] == "arboricity"
                   and roots[s[0]] in cover_roots)
    m.update({
        "gf2core.matroid_builds": counts["matroid_builds"],
        "gf2core.matroid_build_elements": counts["matroid_build_elements"],
        "gf2core.matroid_build_s": fn_incl["gf2core.BinaryMatroid"],
        "gf2core.max_independent_subset_s": fn_incl["gf2core.max_independent_subset"],
        "gf2core.rank_s": fn_incl["gf2core.rank"],
        "circuits.lfc_calls": calls["circuits.largest_fundamental_circuit"],
        "circuits.lfc_self_s": fn_self["circuits.largest_fundamental_circuit"],
        "circuits.extract_calls": calls["circuits.extract_any_circuit"],
        "circuits.extract_self_s": fn_self["circuits.extract_any_circuit"],
        "circuits.circuit_builds": counts["circuit_builds"],
        "circuits.is_circuit_s": fn_incl["circuits.is_circuit"],
        "decompose.phase1_steps": counts["phase1_steps"],
        "decompose.phase2_steps": counts["phase2_steps"],
        "arboricity.calls": calls["arboricity.arboricity"],
        "arboricity.can_partition_calls": calls["arboricity.can_partition"],
        "arboricity.k_success_ratio": _ratio(counts["k_success"],
                                             calls["arboricity.can_partition"]),
        "arboricity.can_partition_s": fn_incl["arboricity.can_partition"],
        "oddcover.symdiff_reduce_self_s": fn_self["oddcover.symdiff_reduce"],
        "oddcover.density_lower_bound_s": fn_incl["oddcover.density_lower_bound"],
        "oracle.enumerate_s": fn_incl["oracle.enumerate_circuits"],
        "oracle.circuits_enumerated": counts["circuits_enumerated"],
        "oracle.exact_c_self_s": fn_self["oracle.exact_c"],
        "oracle.exact_c2_s": fn_incl["oracle.exact_c2"],
        "orbit.orbit_decompose_self_s": fn_self["orbit.orbit_decompose"],
        "formats.parse_s": fn_incl["formats.parse_bm"] + fn_incl["formats.parse_bmdec"],
        "formats.format_s": fn_incl["formats.format_bm"] + fn_incl["formats.format_bmdec"],
        "formats.check_s": sum(fn_incl[f"formats.check_{kind}"]
                               for kind in ("decomposition", "oddcover", "partition")),
        "formats.bytes_written": counts["bytes_written"],
        "cli.arboricity_calls_per_oddcover": _ratio(in_cover, len(cover_roots)),
    })
    return {k: v * scale if UNITS[k] == "s" else v for k, v in m.items()}
