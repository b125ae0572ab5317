"""Command-line entry point.

Every subcommand prints exactly one JSON-lines record per instance on stdout
with a fixed key set (missing values are null, never absent) and human
diagnostics on stderr. Artifacts written to disk are re-read and re-verified
before the command reports success.

Exit codes: 0 success (verification PASS), 1 usage or input error (an
unreadable or unwritable path included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .arboricity import arboricity
from .decompose import (
    DenseParams,
    auto_decompose,
    dense_decompose,
    log_greedy_decompose,
    peel_decompose,
)
from .errors import BmcError, OrderConditionError
from .formats import (
    check_decomposition,
    check_oddcover,
    check_partition,
    format_bm,
    format_bmdec,
    parse_bm,
    parse_bmdec,
)
from .gf2core import BinaryMatroid, rank
from .generators import (
    PRNG_ID,
    InstanceSpec,
    complete_matroid,
    independent_copies,
    random_eulerian,
)
from .oddcover import density_lower_bound, oddcover_via_arboricity, symdiff_reduce
from .oracle import (
    c2_search_is_restricted,
    enumerate_circuits,
    exact_c,
    exact_c2,
    probe_conjectures,
)
from .orbit import compress_even_weight, demonstrate_order_failure, orbit_decompose

REPORT_FIELDS = (
    "instance",
    "n",
    "size",
    "rank",
    "algorithm",
    "circuits",
    "prop4",
    "quotient_bound",
    "arboricity",
    "branch",
    "phase1",
    "phase2",
    "c",
    "c2",
    "c2_restricted",
    "a",
    "conj1",
    "conj2",
    "p",
    "order",
    "seed",
    "out",
    "wall_time_s",
    "verified",
)


class UsageError(BmcError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _emit(**values) -> None:
    record = {key: values.get(key) for key in REPORT_FIELDS}
    print(json.dumps(record))


def _read_matroid(path: str) -> BinaryMatroid:
    return parse_bm(Path(path).read_text())


def _matroid_stats(m: BinaryMatroid) -> dict:
    return {"n": m.dim, "size": len(m), "rank": rank(m)}


def _quotient_bound(m: BinaryMatroid) -> int:
    if len(m) == 0:
        return 0
    return -(-len(m) // (rank(m) + 1))


def _check_circuits(m: BinaryMatroid, dim: int, blocks) -> str | None:
    """check_decomposition, then the quotient bound that every decomposition meets."""
    reason = check_decomposition(m, dim, blocks)
    if reason is None and len(blocks) < _quotient_bound(m):
        reason = "circuit count below the quotient lower bound (verifier bug)"
    return reason


_CHECKERS = {
    "decomposition": _check_circuits,
    "oddcover": check_oddcover,
    "partition": check_partition,
}


def _verify_artifact(mode: str, m: BinaryMatroid, path: str, text: str | None = None):
    """Check the file at path against m with mode's checker, writing text there
    first if given. Prints a failure to stderr; returns (parsed file, passed)."""
    if text is not None:
        Path(path).write_text(text)
    dec = parse_bmdec(Path(path).read_text())
    reason = _CHECKERS[mode](m, dec.dim, dec.blocks)
    if reason is not None:
        print(f"verification failed: {reason}", file=sys.stderr)
    return dec, reason is None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a finite fraction: {text!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="bmcircuits", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a .bm instance")
    g.add_argument("--kind", required=True, choices=["complete", "copies", "random"])
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--size", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    d = sub.add_parser("decompose", help="decompose a matroid into disjoint circuits")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--method", default="auto", choices=["auto", "dense", "log", "peel"])
    d.add_argument("--eps", type=_fraction, default="1/2")
    d.add_argument("--out", required=True)

    o = sub.add_parser("oddcover", help="build a circuit odd-cover")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--method", default="arboricity", choices=["arboricity", "reduce"])
    o.add_argument("--out", required=True)

    a = sub.add_parser("arboricity", help="partition into independent sets")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)

    r = sub.add_parser("orbit", help="rotation-orbit decomposition of the even-weight model")
    r.add_argument("--p", type=int)
    r.add_argument("--compress", action="store_true",
                   help="emit (p-1)-dimensional coordinates")
    r.add_argument("--demo-p7", action="store_true",
                   help="show the p = 7 failure orbit and its two circuits")
    r.add_argument("--out")

    c = sub.add_parser("oracle", help="exact values on tiny instances")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--what", required=True, choices=["c", "c2", "circuits", "conjectures"])

    v = sub.add_parser("verify", help="re-verify an emitted artifact")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--against", required=True)
    v.add_argument("--mode", required=True,
                   choices=list(_CHECKERS))

    b = sub.add_parser("bench", help="run the quick built-in suite")
    b.add_argument("--seed", type=int, default=0)
    return p


def _cmd_gen(args) -> int:
    spec: InstanceSpec
    if args.kind == "complete":
        if args.n is None:
            raise UsageError("gen --kind complete needs --n")
        m = complete_matroid(args.n)
        spec = InstanceSpec("complete", {"n": args.n})
    elif args.kind == "copies":
        if args.k is None or args.s is None:
            raise UsageError("gen --kind copies needs --k and --s")
        m = independent_copies(args.k, args.s)
        spec = InstanceSpec("copies", {"k": args.k, "s": args.s})
    else:
        if args.n is None or args.size is None:
            raise UsageError("gen --kind random needs --n and --size")
        m = random_eulerian(args.n, args.size, args.seed)
        spec = InstanceSpec(
            "random-eulerian",
            {"n": args.n, "size": args.size, "seed": args.seed, "prng": PRNG_ID},
        )
    start = time.perf_counter()
    Path(args.out).write_text(format_bm(m, comments=(f"spec: {spec.header()}",)))
    reloaded = _read_matroid(args.out)
    elapsed = time.perf_counter() - start
    ok = reloaded == m
    _emit(
        instance=spec.header(),
        algorithm="gen",
        seed=args.seed,
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=ok,
        **_matroid_stats(m),
    )
    return 0 if ok else 2


def _cmd_decompose(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    if args.method == "auto":
        dec = auto_decompose(m, args.eps)
    elif args.method == "dense":
        dec = dense_decompose(m, DenseParams.from_epsilon(args.eps))
    elif args.method == "log":
        dec = log_greedy_decompose(m)
    else:
        dec = peel_decompose(m)
    elapsed = time.perf_counter() - start
    meta = {"branch": dec.branch, "phase1": dec.phase1, "phase2": dec.phase2}
    text = format_bmdec(
        "circuits", m.dim, [c.elements for c in dec.circuits], meta=meta
    )
    _, verified = _verify_artifact("decomposition", m, args.out, text)
    _emit(
        instance=Path(args.infile).stem,
        algorithm=f"decompose-{args.method}",
        circuits=len(dec.circuits),
        prop4=density_lower_bound(m) if len(m) else 0,
        quotient_bound=_quotient_bound(m),
        branch=dec.branch,
        phase1=dec.phase1,
        phase2=dec.phase2,
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=verified,
        **_matroid_stats(m),
    )
    return 0 if verified else 2


def _cmd_oddcover(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    if args.method == "arboricity":
        a_value, cover = oddcover_via_arboricity(m)
    else:
        cover = symdiff_reduce(m)
        a_value = None
    elapsed = time.perf_counter() - start
    text = format_bmdec("oddcover", m.dim, [c.elements for c in cover.circuits])
    _, verified = _verify_artifact("oddcover", m, args.out, text)
    _emit(
        instance=Path(args.infile).stem,
        algorithm=f"oddcover-{args.method}",
        circuits=len(cover.circuits),
        prop4=density_lower_bound(m) if len(m) else 0,
        quotient_bound=_quotient_bound(m),
        arboricity=a_value,
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=verified,
        **_matroid_stats(m),
    )
    return 0 if verified else 2


def _cmd_arboricity(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    a_value, partition = arboricity(m)
    elapsed = time.perf_counter() - start
    text = format_bmdec(
        "indsets", m.dim, [p for p in partition.parts], block_comment="independent-set"
    )
    _, verified = _verify_artifact("partition", m, args.out, text)
    _emit(
        instance=Path(args.infile).stem,
        algorithm="arboricity",
        arboricity=a_value,
        circuits=len(partition.parts),
        quotient_bound=_quotient_bound(m),
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=verified,
        **_matroid_stats(m),
    )
    return 0 if verified else 2


def _cmd_orbit(args) -> int:
    if args.demo_p7:
        report = demonstrate_order_failure()
        sizes = sorted(len(c) for c in report.parts)
        print(
            f"p=7: order of 2 is {report.order}; orbit of "
            f"{report.orbit[0].bits()} has {len(report.orbit)} elements; "
            f"is_circuit={report.orbit_is_circuit}; splits into circuits of "
            f"sizes {sizes[0]} and {sizes[1]}",
            file=sys.stderr,
        )
        verified = not report.orbit_is_circuit and sizes == [3, 4]
        _emit(
            instance="orbit-demo-p7",
            algorithm="orbit-demo",
            p=7,
            order=report.order,
            circuits=2,
            n=7,
            size=len(report.orbit),
            verified=verified,
        )
        return 0 if verified else 2
    if args.p is None:
        raise UsageError("orbit needs --p or --demo-p7")
    if args.out is None:
        raise UsageError("orbit --p needs --out")
    start = time.perf_counter()
    dec = orbit_decompose(args.p)  # OrderConditionError surfaces as input error
    elapsed = time.perf_counter() - start
    model = dec.source
    blocks = [c.elements for c in dec.circuits]
    if args.compress:
        # the model holds key k at index (k >> 1) - 1 (build_even_weight_model),
        # and compression keeps the order: element i maps to element i
        model = compress_even_weight(model)
        blocks = [tuple(model.elements[(v.key >> 1) - 1] for v in block) for block in blocks]
    text = format_bmdec("circuits", model.dim, blocks, meta={"p": args.p})
    _, verified = _verify_artifact("decomposition", model, args.out, text)
    _emit(
        instance=f"orbit-p{args.p}",
        algorithm="orbit",
        p=args.p,
        order=args.p - 1,
        circuits=len(dec.circuits),
        quotient_bound=_quotient_bound(model),
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=verified,
        **_matroid_stats(model),
    )
    return 0 if verified else 2


def _cmd_oracle(args) -> int:
    m = _read_matroid(args.infile)
    stats = _matroid_stats(m)
    start = time.perf_counter()
    if args.what == "c":
        value = exact_c(m)
        _emit(
            instance=Path(args.infile).stem, algorithm="oracle-c", c=value,
            prop4=density_lower_bound(m) if len(m) else 0,
            wall_time_s=round(time.perf_counter() - start, 6),
            verified=True, **stats,
        )
    elif args.what == "c2":
        restricted = c2_search_is_restricted(m)
        value = exact_c2(m)
        _emit(
            instance=Path(args.infile).stem, algorithm="oracle-c2",
            c2=value, c2_restricted=restricted,
            wall_time_s=round(time.perf_counter() - start, 6),
            verified=True, **stats,
        )
    elif args.what == "circuits":
        catalog = enumerate_circuits(m)
        _emit(
            instance=Path(args.infile).stem, algorithm="oracle-circuits",
            circuits=len(catalog.masks),
            wall_time_s=round(time.perf_counter() - start, 6),
            verified=True, **stats,
        )
    else:
        report = probe_conjectures(m)
        record = report.to_dict()
        _emit(
            instance=Path(args.infile).stem, algorithm="oracle-conjectures",
            c=record["c"], c2=record["c2"], c2_restricted=record["c2_restricted"],
            a=record["a"], prop4=record["prop4"],
            conj1=record["conj1"], conj2=record["conj2"],
            wall_time_s=round(time.perf_counter() - start, 6),
            verified="VIOLATION" not in (record["conj1"], record["conj2"]),
            **stats,
        )
        if "VIOLATION" in (record["conj1"], record["conj2"]):
            print("conjecture VIOLATION: inspect this instance", file=sys.stderr)
            return 2
    return 0


def _cmd_verify(args) -> int:
    m = _read_matroid(args.infile)
    dec, verified = _verify_artifact(args.mode, m, args.against)
    _emit(
        instance=Path(args.infile).stem,
        algorithm=f"verify-{args.mode}",
        circuits=len(dec.blocks),
        verified=verified,
        **_matroid_stats(m),
    )
    return 0 if verified else 2


def _cmd_bench(args) -> int:
    instances = [
        ("complete-3", complete_matroid(3)),
        ("complete-4", complete_matroid(4)),
        ("complete-5", complete_matroid(5)),
        ("complete-6", complete_matroid(6)),
        ("copies-2x2", independent_copies(2, 2)),
        ("copies-3x2", independent_copies(3, 2)),
        ("copies-2x3", independent_copies(2, 3)),
        ("random-8-20", random_eulerian(8, 20, args.seed)),
        ("random-10-30", random_eulerian(10, 30, args.seed + 1)),
    ]
    failures = 0
    for name, m in instances:
        start = time.perf_counter()
        dec = auto_decompose(m)
        a_value, cover = oddcover_via_arboricity(m)
        elapsed = time.perf_counter() - start
        cover_bound = -(-4 * a_value // 3)
        ok = len(dec.circuits) >= _quotient_bound(m) and len(cover.circuits) <= cover_bound
        failures += 0 if ok else 1
        print(
            f"{name}: odd-cover of {len(cover.circuits)} circuits (bound {cover_bound})",
            file=sys.stderr,
        )
        _emit(
            instance=name,
            algorithm="bench",
            circuits=len(dec.circuits),
            a=a_value,
            arboricity=a_value,
            branch=dec.branch,
            phase1=dec.phase1,
            phase2=dec.phase2,
            c2=None,
            quotient_bound=_quotient_bound(m),
            seed=args.seed,
            wall_time_s=round(elapsed, 6),
            verified=ok,
            **_matroid_stats(m),
        )
    return 0 if failures == 0 else 2


_HANDLERS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "oddcover": _cmd_oddcover,
    "arboricity": _cmd_arboricity,
    "orbit": _cmd_orbit,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except OrderConditionError as exc:
        print(f"error: {exc} (computed order {exc.order})", file=sys.stderr)
        return 1
    except (BmcError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
