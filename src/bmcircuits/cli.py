"""Command-line entry point.

Every subcommand prints exactly one JSON-lines record per instance on stdout
with a fixed key set (missing values are null, never absent) and human
diagnostics on stderr. decompose, oddcover, arboricity and orbit end in one
helper: it writes the artifact in the format of its kind (formats.
ARTIFACT_KINDS), re-reads and re-checks the file with that kind's checker,
and only then reports success. verify runs the same re-read and check on a
given file.

The re-check of a file just written runs each circuit law once per command.
Every line is parsed and the kind line, dimensions, disjointness and union
are checked as in verify, but a block that reads back as the Circuit written
at its position is checked as that Circuit, whose law its constructor
already ran on the same keys (see _check_file). verify knows no written
blocks, so it runs the law on every block it reads.

Exit codes: 0 success (verification PASS), 1 usage or input error (an
unreadable or unwritable path included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .arboricity import arboricity
from .circuits import Circuit
from .decompose import auto_decompose, peel_decompose
from .errors import BmcError
from .formats import (
    ARTIFACT_KINDS,
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
from .orbit import (
    _require_admissible,
    _rotation_orbits,
    demonstrate_order_failure,
    orbit_decompose,
)

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


def _check_file(kind: str, m: BinaryMatroid, path: str, written=()):
    """Check the file at path against m as an artifact of kind: its kind line
    first, then its blocks with the kind's checker. Prints a failure to
    stderr; returns (parsed file, passed).

    written holds the blocks just written to path, if any. A parsed block
    whose keys and dimension are those of the written Circuit at its
    position goes to the checker as that Circuit, so its circuit law is not
    run a second time; every other block goes as its parsed keys. This
    gives the same verdict and reason: the Circuit's constructor ran
    is_circuit on that very key tuple in this process, the Circuit is
    immutable, and the checkers still test its dimension and keys.
    """
    dec = parse_bmdec(Path(path).read_text())
    spec = ARTIFACT_KINDS[kind]
    blocks = list(dec.blocks)
    for i, (block, c) in enumerate(zip(blocks, written)):
        if isinstance(c, Circuit) and c.dim == dec.dim and c.keys == block:
            blocks[i] = c
    if dec.kind != spec.dec_kind:
        reason = f"kind line '{dec.kind}' is not the {kind} kind '{spec.dec_kind}'"
    else:
        reason = spec.check(m, dec.dim, blocks)
    if reason is not None:
        print(f"verification failed: {reason}", file=sys.stderr)
    return dec, reason is None


def _write_checked(kind: str, m: BinaryMatroid, out: str, blocks, elapsed: float,
                   meta: dict | None = None, **fields) -> int:
    """Write blocks to out as an artifact of kind, re-read and check it against
    m, and emit the record with the fields every artifact command shares.
    Returns the exit code: 0 if the file passed, 2 if not."""
    spec = ARTIFACT_KINDS[kind]
    Path(out).write_text(format_bmdec(spec.dec_kind, m.dim, blocks, meta, spec.block_comment))
    _, verified = _check_file(kind, m, out, blocks)
    _emit(circuits=len(blocks), quotient_bound=_quotient_bound(m), out=out,
          wall_time_s=round(elapsed, 6), verified=verified, **_matroid_stats(m), **fields)
    return 0 if verified else 2


# lambdas look each name up when called, so bmbench's re-bound (traced) ones run
_DECOMPOSERS = {
    "auto": lambda m, eps: auto_decompose(m, eps),
    "peel": lambda m, eps: peel_decompose(m),
}


def _epsilon(text: str) -> Fraction:
    """--eps as a positive fraction, refused here for every --method (peel
    reads none)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a finite fraction: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"epsilon must be positive: {text!r}")
    return value


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: parse_args fills a fresh namespace
    each call and no default is mutable, so commands share it safely."""
    p = _Parser(prog="bmcircuits", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a .bm instance")
    g.add_argument("--kind", required=True, choices=["complete", "copies", "random"])
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--size", type=int)
    g.add_argument("--seed", type=int)  # random only; 0 when absent
    g.add_argument("--out", required=True)

    d = sub.add_parser("decompose", help="decompose a matroid into disjoint circuits")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--method", default="auto", choices=list(_DECOMPOSERS))
    d.add_argument("--eps", type=_epsilon, default="1/2")
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
    v.add_argument("--mode", required=True, choices=list(ARTIFACT_KINDS))

    return p


def _cmd_gen(args) -> int:
    spec: InstanceSpec
    if args.seed is not None and args.kind != "random":
        raise UsageError(f"gen --kind {args.kind} takes no --seed")
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
        seed = 0 if args.seed is None else args.seed
        m = random_eulerian(args.n, args.size, seed)
        spec = InstanceSpec(
            "random-eulerian",
            {"n": args.n, "size": args.size, "seed": seed, "prng": PRNG_ID},
        )
    start = time.perf_counter()
    Path(args.out).write_text(format_bm(m, comments=(f"spec: {spec.header()}",)))
    reloaded = _read_matroid(args.out)
    elapsed = time.perf_counter() - start
    ok = reloaded == m
    _emit(
        instance=spec.header(),
        algorithm="gen",
        seed=spec.params.get("seed"),  # null for complete and copies: no seed used
        out=args.out,
        wall_time_s=round(elapsed, 6),
        verified=ok,
        **_matroid_stats(m),
    )
    return 0 if ok else 2


def _cmd_decompose(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    dec = _DECOMPOSERS[args.method](m, args.eps)
    elapsed = time.perf_counter() - start
    meta = {"branch": dec.branch, "phase1": dec.phase1, "phase2": dec.phase2}
    return _write_checked(
        "decomposition", m, args.out, dec.circuits, elapsed, meta, **meta,
        instance=Path(args.infile).stem, algorithm=f"decompose-{args.method}",
        prop4=density_lower_bound(m),
    )


def _cmd_oddcover(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    if args.method == "arboricity":
        a_value, cover = oddcover_via_arboricity(m)
    else:
        cover = symdiff_reduce(m)
        a_value = None
    elapsed = time.perf_counter() - start
    return _write_checked(
        "oddcover", m, args.out, cover.circuits, elapsed,
        instance=Path(args.infile).stem, algorithm=f"oddcover-{args.method}",
        prop4=density_lower_bound(m), arboricity=a_value,
    )


def _cmd_arboricity(args) -> int:
    m = _read_matroid(args.infile)
    start = time.perf_counter()
    a_value, partition = arboricity(m)
    elapsed = time.perf_counter() - start
    return _write_checked(
        "partition", m, args.out, partition.parts, elapsed,
        instance=Path(args.infile).stem, algorithm="arboricity", arboricity=a_value,
    )


def _cmd_orbit(args) -> int:
    if args.demo_p7:
        report = demonstrate_order_failure()
        sizes = sorted(len(c) for c in report.parts)
        print(
            f"p=7: order of 2 is {report.order}; orbit of "
            f"{format(report.orbit[0], '07b')} has {len(report.orbit)} elements; "
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
    if args.compress:  # the compressed model is complete_matroid(p - 1)
        _require_admissible(args.p)  # OrderConditionError surfaces as input error
        dec = _rotation_orbits(args.p, complete_matroid(args.p - 1))
    else:
        dec = orbit_decompose(args.p)
    elapsed = time.perf_counter() - start
    return _write_checked(
        "decomposition", dec.source, args.out, dec.circuits, elapsed, {"p": args.p},
        instance=f"orbit-p{args.p}", algorithm="orbit", p=args.p, order=args.p - 1,
    )


# the record fields of each oracle --what, computed inside the timed section;
# _emit drops the report fields that are not record fields
_ORACLES = {
    "c": lambda m: {"c": exact_c(m)},
    "c2": lambda m: {"c2_restricted": c2_search_is_restricted(m), "c2": exact_c2(m)},
    "circuits": lambda m: {"circuits": len(enumerate_circuits(m).masks)},
    "conjectures": lambda m: probe_conjectures(m).to_dict(),
}


def _cmd_oracle(args) -> int:
    m = _read_matroid(args.infile)
    stats = _matroid_stats(m)
    start = time.perf_counter()
    fields = _ORACLES[args.what](m)
    elapsed = time.perf_counter() - start
    if args.what == "c":  # a bound reported next to c, not part of its search
        fields["prop4"] = density_lower_bound(m)
    verified = "VIOLATION" not in (fields.get("conj1"), fields.get("conj2"))
    _emit(**(stats | fields), instance=Path(args.infile).stem,
          algorithm=f"oracle-{args.what}", wall_time_s=round(elapsed, 6), verified=verified)
    if not verified:
        print("conjecture VIOLATION: inspect this instance", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    m = _read_matroid(args.infile)
    dec, verified = _check_file(args.mode, m, args.against)
    _emit(
        instance=Path(args.infile).stem,
        algorithm=f"verify-{args.mode}",
        circuits=len(dec.blocks),
        verified=verified,
        **_matroid_stats(m),
    )
    return 0 if verified else 2


_HANDLERS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "oddcover": _cmd_oddcover,
    "arboricity": _cmd_arboricity,
    "orbit": _cmd_orbit,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (BmcError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
