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

Parsers report 1-based line numbers on every error. A vector line is read
and written as its int key, the line as a big-endian integer (coordinate 0
is the most significant bit); parse_bmdec returns each block as a tuple of
keys. format_bmdec and the checkers take blocks of two kinds: such key
tuples (as IndependentPartition.parts holds too) and Circuits.

Both parsers read through one line reader, _Lines. Once the dim line is
read, it takes a run of canonical vector lines (dim characters over 0/1,
then \n) with one regular-expression match, about 64 KB at most, and turns
the run into keys with one int(line, 2) per line at C level. Every other
line (headers, blanks, comments, padded or malformed lines, other line
breaks) goes through splitlines() and strip() one at a time. A run gives
the parser the keys, line numbers and errors that the lines one at a time
would: the proof is in _Lines' docstring. format_bmdec fills one
str.format template per block, which calls each key's __format__ with the
spec that format(key, spec) would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .circuits import Circuit, is_circuit
from .errors import FormatError, OutOfRangeError
from .gf2core import MAX_DIM, BinaryMatroid, Gf2Eliminator

# Circuits, or key blocks as parse_bmdec returns them
_Blocks = Sequence[Circuit | Collection[int]]


def _parse_dim(token_line: str, lineno: int) -> int:
    parts = token_line.split()
    if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdecimal():
        raise FormatError(f"expected 'dim <n>', got {token_line!r}", lineno)
    n = int(parts[1])
    if n < 1:
        raise FormatError("dimension must be positive", lineno)
    return n


_ALL_ZEROS = "all-zeros vector is not allowed"


def _parse_key(line: str, dim: int, lineno: int) -> int:
    """The nonzero key of one vector line of a file of dimension dim."""
    if len(line) != dim or line.strip("01"):  # int(line, 2) alone takes "1_01"
        raise FormatError(
            f"expected a {dim}-character line over 0/1, got {line!r}", lineno
        )
    key = int(line, 2)
    if not key:
        raise FormatError(_ALL_ZEROS, lineno)
    return key


#: about the most text one run of vector lines covers, so that only one
#: run's keys are alive at once
_RUN_CHARS = 1 << 16


class _Lines:
    """The lines of text.splitlines(), numbered from 1, stripped, and read a
    run of vector lines at a time once the parser sets dim.

    Iterating yields (lineno, item). item is either one stripped line, or a
    run: the list of the nonzero keys of consecutive canonical vector lines,
    the first of them line lineno. A canonical vector line is dim characters
    over 0/1 followed by \\n; once dim is set, the pattern
    (?:[01]{dim}\\n){1,cap} is tried at each line start, with cap lines
    about _RUN_CHARS characters. Where it does not match, the text up to and
    including the next \\n is split by splitlines() and yielded a line at a
    time, as a parser without runs would see it.

    A run gives the parser what the line-at-a-time reading would: a run
    starts at the start of the text or just after a \\n and ends just after
    one, so no \\r\\n pair is split and each matched line is one line of
    text.splitlines(), which strip() leaves alone, numbered one each. Each
    such line is one that _parse_key accepts unless it is all zeros, and
    gives the key int(line, 2) that _parse_key returns. On an all-zeros
    line the run is cut: the lines before it are yielded as a run, and then
    the same FormatError as _parse_key's is raised at its line number, so
    the parser has met every line before it first, as it would have.
    """

    def __init__(self, text: str):
        self.text = text
        self.dim: int | None = None  # set by the parser on its dim line

    def __iter__(self) -> Iterator[tuple[int, str | list[int]]]:
        text = self.text
        pos, end, lineno = 0, len(text), 0
        run = None  # the run pattern's match method, once dim is set
        while pos < end:
            if run is None and self.dim is not None:
                cap = max(1, _RUN_CHARS // (self.dim + 1))
                run = re.compile(f"(?:[01]{{{self.dim}}}\n){{1,{cap}}}").match
            found = run and run(text, pos)
            if found:
                keys = list(map(int, found.group().split(), repeat(2)))
                if 0 in keys:
                    bad = keys.index(0)
                    if bad:
                        yield lineno + 1, keys[:bad]
                    raise FormatError(_ALL_ZEROS, lineno + 1 + bad)
                yield lineno + 1, keys
                lineno += len(keys)
                pos = found.end()
            else:
                cut = text.find("\n", pos) + 1 or end
                for line in text[pos:cut].splitlines():
                    lineno += 1
                    yield lineno, line.strip()
                pos = cut


def parse_bm(text: str) -> BinaryMatroid:
    dim = None
    seen: set[int] = set()
    lines = _Lines(text)
    for lineno, item in lines:
        if type(item) is str:
            if not item or item[0] == "#":
                continue
            if dim is None:
                dim = lines.dim = _parse_dim(item, lineno)
                continue
            item = [_parse_key(item, dim, lineno)]
        new = set(item)
        if len(new) < len(item) or not seen.isdisjoint(new):  # a repeat: find the first
            for i, key in enumerate(item):
                if key in seen:
                    raise FormatError(f"duplicate vector {key:0{dim}b}", lineno + i)
                seen.add(key)
        seen |= new
    if dim is None:
        raise FormatError("missing 'dim <n>' header")
    return BinaryMatroid(dim, seen)


def format_bm(m: BinaryMatroid, comments: tuple[str, ...] = ()) -> str:
    spec = f"0{m.dim}b"
    lines = [f"dim {m.dim}"]
    lines += [f"# {c}" for c in comments]
    lines += [format(k, spec) for k in m.keys]
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
    lines = _Lines(text)
    for lineno, item in lines:
        if type(item) is str:
            if not item:
                if current:
                    blocks.append(tuple(current))
                    current = []
                continue
            if item[0] == "#":
                for token in item[1:].split():
                    if "=" in token:
                        key, _, value = token.partition("=")
                        meta[key] = value
                continue
            if dim is None:
                if kind is None:
                    parts = item.split()
                    if (len(parts) != 2 or parts[0] not in DEC_KINDS
                            or not parts[1].isdecimal()):
                        raise FormatError(
                            f"expected '<kind> <count>' header with kind in {DEC_KINDS}",
                            lineno,
                        )
                    kind, count = parts[0], int(parts[1])
                else:
                    dim = lines.dim = _parse_dim(item, lineno)
                continue
            item = [_parse_key(item, dim, lineno)]  # a vector line: one key
        if dim > MAX_DIM:  # at the first vector line, as BinaryMatroid(dim, keys) would raise
            raise OutOfRangeError(f"dimension {dim} not in 1..{MAX_DIM}")
        current += item
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
    line = f"\n{{:0{dim}b}}"  # the vector line of every key of dimension dim
    head = f"\n# {block_comment}" if block_comment else ""  # the lines before a block's keys
    templates: dict[int, str] = {}  # the lines of a block of n keys, by n
    parts = [f"{kind} {len(blocks)}\ndim {dim}"]  # one string per block
    for i, block in enumerate(blocks):
        try:
            keys = tuple(block.keys if isinstance(block, Circuit) else block)
            n = len(keys)
            if n not in templates:
                templates[n] = line * n
            parts.append(head + templates[n].format(*keys))
        except (TypeError, ValueError) as err:  # "{:03b}" of a str or a float
            raise FormatError(
                f"block {i} is neither a Circuit nor a collection of int keys"
            ) from err
    if meta:
        parts.append("\n# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    return "\n".join(parts) + "\n"


def _block_keys(block, dim: int) -> Collection[int] | None:
    """The keys of one block, or None when one is not a nonzero dim-bit value.

    Runs the dimension test once per block: a Circuit by its dim (its keys
    are returned as they are), a key block by its least and greatest key. A
    block whose items do not compare with ints, such as bit strings, is None
    too. The items between the ends are not type-checked here: a non-int
    among them fails the block's own processing, which each checker turns
    into the same reason (see _BAD_KEY).
    """
    if isinstance(block, Circuit):
        return block.keys if block.dim == dim else None
    try:
        return block if not block or (0 < min(block) and not max(block) >> dim) else None
    except TypeError:
        return None


def _outside(i: int, dim: int) -> str:
    return f"block {i} has a vector that is not a nonzero vector of dimension {dim}"


# what a non-int key between a block's two int ends raises when the block is
# processed: no XOR (TypeError), no bit_length (AttributeError), no binary
# format (ValueError)
_BAD_KEY = (TypeError, AttributeError, ValueError)


def _circuit_reason(i: int, block, keys: Collection[int], dim: int) -> str | None:
    """None when block i, with keys from _block_keys, is a circuit, else a reason."""
    try:
        if isinstance(block, Circuit) or is_circuit(keys):
            return None
    except _BAD_KEY:
        return _outside(i, dim)
    return f"block {i} is not a circuit"


def check_decomposition(m: BinaryMatroid, dim: int, blocks: _Blocks) -> str | None:
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
        reason = _circuit_reason(i, block, keys, dim)
        if reason is not None:
            return reason
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


def check_oddcover(m: BinaryMatroid, dim: int, blocks: _Blocks) -> str | None:
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
        reason = _circuit_reason(i, block, keys, dim)
        if reason is not None:
            return reason
        parity.symmetric_difference_update(keys)
    if parity != m.key_set:
        return "symmetric difference of blocks differs from the matroid"
    return None


def check_partition(m: BinaryMatroid, dim: int, blocks: _Blocks) -> str | None:
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
        own: set[int] = set()
        elim = Gf2Eliminator(track_witnesses=False)
        try:
            for key in keys:
                if key in own:
                    return f"block {i} repeats vector {key:0{dim}b}"
                own.add(key)
            for key in keys:
                if key in seen:
                    return f"block {i} overlaps an earlier block"
                seen.add(key)
                if elim.insert(key) is not None:
                    return f"block {i} is not independent"
        except _BAD_KEY:
            return _outside(i, dim)
    if seen != m.key_set:
        return "union of blocks differs from the matroid"
    return None


class ArtifactKind(NamedTuple):
    """How one artifact kind is written (.bmdec kind line, per-block comment)
    and checked against its source matroid."""

    dec_kind: str
    block_comment: str | None
    check: Callable[[BinaryMatroid, int, _Blocks], str | None]


# each checker is looked up when called, so a wrapper installed on the module
# attribute (bmbench's tracer) also sees the checks made through this table
ARTIFACT_KINDS = {
    "decomposition": ArtifactKind("circuits", None, lambda *a: check_decomposition(*a)),
    "oddcover": ArtifactKind("oddcover", None, lambda *a: check_oddcover(*a)),
    "partition": ArtifactKind("indsets", "independent-set", lambda *a: check_partition(*a)),
}
DEC_KINDS = tuple(kind.dec_kind for kind in ARTIFACT_KINDS.values())
