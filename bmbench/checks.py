"""The benchmark's own checks of every command's record and artifact.

The program re-verifies its artifacts and says so in ``verified``; the
benchmark does not take that on trust. It re-reads each `.bm` input and each
written artifact with the small parser and GF(2) rank below, which share no
code with the package, and compares the record against exact values and
bounds that hold for every correct output.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# keys of a record that must repeat exactly between passes (never timings or paths)
DIGEST_FIELDS = ("algorithm", "n", "size", "rank", "circuits", "prop4", "quotient_bound",
                 "arboricity", "branch", "phase1", "phase2", "c", "c2", "c2_restricted",
                 "a", "conj1", "conj2", "p", "verified")


def gf2_rank(keys) -> int:
    pivots: dict[int, int] = {}
    for key in keys:
        while key:
            top = key.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = key
                break
            key ^= row
    return len(pivots)


def _is_circuit(block: list[int]) -> bool:
    acc = 0
    for key in block:
        acc ^= key
    return (acc == 0 and len(block) >= 3 and len(set(block)) == len(block)
            and gf2_rank(block) == len(block) - 1)


def read_bm(text: str) -> tuple[int, frozenset[int]]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    dim = int(lines[0].split()[1])
    return dim, frozenset(int(ln, 2) for ln in lines[1:])


def write_bm(dim: int, keys) -> str:
    return "\n".join([f"dim {dim}"] + [format(k, f"0{dim}b") for k in sorted(keys)]) + "\n"


def read_bmdec(text: str) -> tuple[str, int, list[list[int]]]:
    """Kind, dimension and blocks of a `.bmdec` file; raises ValueError if malformed."""
    lines = [ln.strip() for ln in text.splitlines()]
    kind, count = lines[0].split()
    dim = int(lines[1].split()[1])
    blocks: list[list[int]] = []
    current: list[int] = []
    for ln in lines[2:] + [""]:
        if ln.startswith("#"):
            continue
        if not ln:
            if current:
                blocks.append(current)
                current = []
            continue
        if len(ln) != dim:
            raise ValueError(f"vector line {ln!r} is not {dim} bits long")
        current.append(int(ln, 2))
    if int(count) != len(blocks):
        raise ValueError(f"header announces {count} blocks, found {len(blocks)}")
    return kind, dim, blocks


def even_weight_model(p: int, compress: bool) -> frozenset[int]:
    """Nonzero even-weight vectors of F_2^p; without the last coordinate if compressed."""
    if compress:
        return frozenset(range(1, 1 << (p - 1)))
    return frozenset((y << 1) | (y.bit_count() & 1) for y in range(1, 1 << (p - 1)))


def check_artifact(kind: str, ground: frozenset[int], dim: int, text: str) -> str | None:
    """None when the artifact is a correct decomposition, odd-cover or partition of ground."""
    try:
        file_kind, file_dim, blocks = read_bmdec(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable artifact: {exc}"
    want = {"decomposition": "circuits", "oddcover": "oddcover", "partition": "indsets"}[kind]
    if file_kind != want or file_dim != dim:
        return f"artifact header {file_kind} dim {file_dim}, expected {want} dim {dim}"
    seen: set[int] = set()
    for i, block in enumerate(blocks):
        if kind == "partition":
            if gf2_rank(block) != len(block) or len(set(block)) != len(block):
                return f"part {i} is not independent"
        elif not _is_circuit(block):
            return f"block {i} is not a circuit"
        if kind == "oddcover":
            seen.symmetric_difference_update(block)
        elif seen.isdisjoint(block):
            seen.update(block)
        else:
            return f"block {i} overlaps an earlier block"
    if seen != ground:
        return "blocks do not reproduce the input set"
    return None


@dataclass(frozen=True)
class Outcome:
    """What one command produced: its record, artifact digest and any failure.

    ``seconds`` is the measured time; ``scale`` takes it to the reference
    host speed (see speed.py).
    """

    label: str
    kind: str
    seconds: float
    record: dict | None
    digest: str
    failure: str | None
    block_sizes: dict[int, int] | None = None  # block size -> count, for artifacts
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _bounds(cmd, record: dict, ground: frozenset[int] | None) -> str | None:
    """Exact values and bounds every correct record of this command satisfies."""
    for key, value in cmd.expect.items():
        if record.get(key) != value:
            return f"{key} = {record.get(key)}, known exact value {value}"
    if ground is None:
        return None
    size, r = len(ground), gf2_rank(ground)
    if (record["size"], record["rank"]) != (size, r):
        return f"record size/rank {record['size']}/{record['rank']}, input {size}/{r}"
    if cmd.kind == "decompose" and record["circuits"] < _ceil_div(size, r + 1):
        return "fewer circuits than the quotient lower bound"
    if cmd.kind == "arboricity" and record["arboricity"] < _ceil_div(size, r):
        return "arboricity below the quotient lower bound"
    if cmd.args == ("--method", "arboricity") and (
            record["circuits"] > _ceil_div(4 * record["arboricity"], 3)):
        return "odd-cover larger than ceil(4 a(M) / 3)"
    if cmd.kind == "oracle":
        c = record["c"]
        if c is None or not _ceil_div(size, r + 1) <= c or (record["prop4"] or 0) > c:
            return f"exact c = {c} contradicts its lower bounds"
        if record["c2"] is not None and record["c2"] > c:
            return "exact c2 exceeds exact c"
        if record["a"] is not None and record["a"] < _ceil_div(size, r):
            return "a(M) below the quotient lower bound"
    return None


def _check_output(cmd, record: dict, workdir: Path, digest) -> tuple[str | None, dict | None]:
    """Failure reason (or None) and block-size histogram of one command's output."""
    ground, dim = None, None
    if cmd.source is not None:
        dim, ground = read_bm((workdir / f"{cmd.source}.bm").read_text())
    elif cmd.kind == "orbit":
        p, compress = int(cmd.args[1]), "--compress" in cmd.args
        ground, dim = even_weight_model(p, compress), p - compress
    failure = _bounds(cmd, record, ground)
    if failure is not None or cmd.artifact is None:
        return failure, None
    text = (workdir / cmd.artifact).read_text()
    digest.update(text.encode())
    kind = {"arboricity": "partition", "oddcover": "oddcover"}.get(cmd.kind, "decomposition")
    failure = check_artifact(kind, ground, dim, text)
    if failure is not None:
        return failure, None
    blocks = read_bmdec(text)[2]
    if len(blocks) != record["circuits"]:
        return "record's circuit count differs from the artifact", None
    return None, dict(sorted(Counter(len(b) for b in blocks).items()))


def check(cmd, rc: int | str, stdout: str, workdir: Path, seconds: float) -> Outcome:
    """Check one finished command; any miss becomes the outcome's failure.

    ``rc`` is the exit code, or the exception's text if the command raised.
    """
    lines = stdout.splitlines()
    record = None
    failure = None
    sizes = None
    digest = hashlib.sha256()
    try:
        record = json.loads(lines[-1]) if len(lines) == 1 else None
    except ValueError:
        pass
    if rc != 0:
        failure = f"exit code {rc}" if isinstance(rc, int) else f"raised {rc}"
    elif not isinstance(record, dict):
        failure = f"expected one JSON record, got {len(lines)} lines"
    elif record.get("verified") is not True:
        failure = "record says verified: false"
    else:
        try:
            failure, sizes = _check_output(cmd, record, workdir, digest)
        except (KeyError, TypeError, ValueError, OSError) as exc:  # malformed output
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
        digest.update(json.dumps([record.get(k) for k in DIGEST_FIELDS]).encode())
    return Outcome(cmd.label, cmd.kind, seconds, record if isinstance(record, dict) else None,
                   digest.hexdigest()[:16], failure, sizes)
