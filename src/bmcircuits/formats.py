"""Text interchange formats.

.bm --- one matroid:
    dim <n>
    <n-character line over {0,1}, leftmost character = coordinate 0>
    ...
Comment lines start with '#'; blank lines are ignored. Duplicate vector
lines and the all-zeros line are format errors.

.bmdec --- a list of vector blocks against one dimension:
    <kind> <count>          kind is circuits | oddcover | indsets, one per
                            artifact kind of ARTIFACT_KINDS
    dim <n>
    <blocks of vector lines separated by blank lines, each optionally
     preceded by '# ...' comments>
    # key=value trailer comments collected into metadata

Parsers report 1-based line numbers on every error. parse_bmdec returns each
block as a tuple of int keys (the line read as a big-endian integer, as in
Gf2Vector.key), validated line by line but never built into vectors. The
checkers take blocks of three kinds: such key tuples, Circuits, and
collections of Gf2Vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, NamedTuple, Sequence

from .circuits import Circuit, is_circuit
from .errors import FormatError, OutOfRangeError
from .gf2core import MAX_DIM, BinaryMatroid, Gf2Eliminator, Gf2Vector

_Blocks = Sequence[Collection[Gf2Vector]]
# what the checkers take: _Blocks, or key blocks as parse_bmdec returns them
_CheckedBlocks = Sequence[Collection[Gf2Vector] | Collection[int]]


def _parse_dim(token_line: str, lineno: int) -> int:
    parts = token_line.split()
    if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdigit():
        raise FormatError(f"expected 'dim <n>', got {token_line!r}", lineno)
    n = int(parts[1])
    if n < 1:
        raise FormatError("dimension must be positive", lineno)
    return n


def _parse_key(line: str, dim: int, lineno: int) -> int:
    """The nonzero key of one vector line of a file of dimension dim."""
    if len(line) != dim or line.strip("01"):  # int(line, 2) alone takes "1_01"
        raise FormatError(
            f"expected a {dim}-character line over 0/1, got {line!r}", lineno
        )
    key = int(line, 2)
    if not key:
        raise FormatError("all-zeros vector is not allowed", lineno)
    return key


def parse_bm(text: str) -> BinaryMatroid:
    dim = None
    vectors: list[Gf2Vector] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            dim = _parse_dim(line, lineno)
            continue
        v = Gf2Vector(dim, _parse_key(line, dim, lineno))
        if v.key in seen:
            raise FormatError(f"duplicate vector {line}", lineno)
        seen.add(v.key)
        vectors.append(v)
    if dim is None:
        raise FormatError("missing 'dim <n>' header")
    return BinaryMatroid(dim, vectors)


def format_bm(m: BinaryMatroid, comments: tuple[str, ...] = ()) -> str:
    lines = [f"dim {m.dim}"]
    lines += [f"# {c}" for c in comments]
    lines += [v.bits() for v in m.elements]
    return "\n".join(lines) + "\n"


def format_circuit(c: Circuit) -> str:
    """Single circuit in .bm form with a '# circuit' marker."""
    lines = [f"dim {c.dim}", "# circuit"]
    lines += [v.bits() for v in c.elements]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DecFile:
    """Parsed .bmdec content: kind, dimension, blocks of int keys, trailer metadata.

    Each block holds the keys of its vector lines in file order; every key is
    a nonzero dim-bit value, and dim is at most MAX_DIM when a block exists.
    """

    kind: str
    dim: int
    blocks: tuple[tuple[int, ...], ...]
    meta: dict = field(default_factory=dict)


def parse_bmdec(text: str) -> DecFile:
    kind = None
    count = None
    dim = None
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    meta: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append(tuple(current))
                current = []
        elif line[0] == "#":
            for token in line[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
        elif dim is not None:  # a vector line: the only kind after the dim line
            current.append(_parse_key(line, dim, lineno))
            if dim > MAX_DIM:  # as Gf2Vector(dim, key) would raise
                raise OutOfRangeError(f"dimension {dim} not in 1..{MAX_DIM}")
        elif kind is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in DEC_KINDS or not parts[1].isdigit():
                raise FormatError(
                    f"expected '<kind> <count>' header with kind in {DEC_KINDS}", lineno
                )
            kind, count = parts[0], int(parts[1])
        else:
            dim = _parse_dim(line, lineno)
    if current:
        blocks.append(tuple(current))
    if kind is None:
        raise FormatError("missing '<kind> <count>' header")
    if dim is None:
        raise FormatError("missing 'dim <n>' line")
    if count != len(blocks):
        raise FormatError(f"header announces {count} blocks, found {len(blocks)}")
    return DecFile(kind, dim, tuple(blocks), meta)


def format_bmdec(
    kind: str,
    dim: int,
    blocks: _Blocks,
    meta: dict | None = None,
    block_comment: str | None = None,
) -> str:
    if kind not in DEC_KINDS:
        raise FormatError(f"unknown kind {kind!r}")
    spec = f"0{dim}b"  # v.bits() for every vector of dimension dim
    lines = [f"{kind} {len(blocks)}", f"dim {dim}"]
    for block in blocks:
        lines.append("")
        if block_comment:
            lines.append(f"# {block_comment}")
        lines += [format(v.key, spec) for v in block]
    if meta:
        lines.append("")
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    return "\n".join(lines) + "\n"


def _block_keys(block, dim: int) -> Collection[int] | None:
    """The keys of one block, or None when one is not a nonzero dim-bit value.

    Runs the dimension test once per block: a Circuit by its dim (its key set
    is returned as it is), a key block by its least and greatest key, and a
    block of Gf2Vectors by the dimension of each, whose keys the vector type
    keeps in range.
    """
    if isinstance(block, Circuit):
        return block.key_set if block.dim == dim else None
    if not block:
        return block
    if isinstance(next(iter(block)), Gf2Vector):
        return [v.key for v in block] if all(v.n == dim for v in block) else None
    return block if 0 < min(block) and not max(block) >> dim else None


def _outside(i: int, dim: int) -> str:
    return f"block {i} has a vector that is not a nonzero vector of dimension {dim}"


def check_decomposition(m: BinaryMatroid, dim: int, blocks: _CheckedBlocks) -> str | None:
    """None if the blocks are disjoint circuits whose union is m, else a reason.

    Blocks that pass always meet the quotient bound ceil(|m| / (rank(m) + 1)):
    each circuit C inside m has |C| = rank(C) + 1 <= rank(m) + 1 elements.
    """
    if dim != m.dim:
        return f"dimension mismatch: {dim} vs {m.dim}"
    seen: set[int] = set()
    for i, block in enumerate(blocks):
        keys = _block_keys(block, dim)
        if keys is None:
            return _outside(i, dim)
        if not (isinstance(block, Circuit) or is_circuit(keys)):
            return f"block {i} is not a circuit"
        if not seen.isdisjoint(keys):
            return f"block {i} overlaps an earlier block"
        seen.update(keys)
    if seen != m.key_set:
        return "union of blocks differs from the matroid"
    return None


@dataclass(frozen=True)
class Decomposition:
    """Pairwise-disjoint circuits whose union is the source matroid.

    The circuit count witnesses an upper bound on the minimum decomposition
    size. branch/phase1/phase2 record which strategy produced it. Building
    one runs check_decomposition, which tests a Circuit by its dimension and
    key set only: its constructor already checked the circuit law.
    """

    source: BinaryMatroid
    circuits: tuple[Circuit, ...]
    branch: str = "peel"
    phase1: int = 0
    phase2: int = 0

    def __post_init__(self):
        reason = check_decomposition(self.source, self.source.dim, self.circuits)
        if reason is not None:
            raise OutOfRangeError(reason)

    def __len__(self) -> int:
        return len(self.circuits)


def check_oddcover(m: BinaryMatroid, dim: int, blocks: _CheckedBlocks) -> str | None:
    """None if every block is a circuit and the blocks XOR to m, else a reason.

    Blocks may use vectors outside m; each must occur an even number of times.
    """
    if dim != m.dim:
        return f"dimension mismatch: {dim} vs {m.dim}"
    parity: set[int] = set()
    for i, block in enumerate(blocks):
        keys = _block_keys(block, dim)
        if keys is None:
            return _outside(i, dim)
        if not (isinstance(block, Circuit) or is_circuit(keys)):
            return f"block {i} is not a circuit"
        parity.symmetric_difference_update(keys)
    if parity != m.key_set:
        return "symmetric difference of blocks differs from the matroid"
    return None


def check_partition(m: BinaryMatroid, dim: int, blocks: _CheckedBlocks) -> str | None:
    """None if the blocks are nonempty, disjoint independent sets covering m."""
    if dim != m.dim:
        return f"dimension mismatch: {dim} vs {m.dim}"
    seen: set[int] = set()
    for i, block in enumerate(blocks):
        keys = _block_keys(block, dim)
        if keys is None:
            return _outside(i, dim)
        if not keys:
            return f"block {i} is empty"
        elim = Gf2Eliminator(track_witnesses=False)
        for key in keys:
            if key in seen:
                return f"block {i} overlaps an earlier block"
            seen.add(key)
            if elim.insert(key) is not None:
                return f"block {i} is not independent"
    if seen != m.key_set:
        return "union of blocks differs from the matroid"
    return None


class ArtifactKind(NamedTuple):
    """How one artifact kind is written (.bmdec kind line, per-block comment)
    and checked against its source matroid."""

    dec_kind: str
    block_comment: str | None
    check: Callable[[BinaryMatroid, int, _CheckedBlocks], str | None]


# each checker is looked up when called, so a wrapper installed on the module
# attribute (bmbench's tracer) also sees the checks made through this table
ARTIFACT_KINDS = {
    "decomposition": ArtifactKind("circuits", None, lambda *a: check_decomposition(*a)),
    "oddcover": ArtifactKind("oddcover", None, lambda *a: check_oddcover(*a)),
    "partition": ArtifactKind("indsets", "independent-set", lambda *a: check_partition(*a)),
}
DEC_KINDS = tuple(kind.dec_kind for kind in ARTIFACT_KINDS.values())
