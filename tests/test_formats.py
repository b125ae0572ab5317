from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcircuits import formats
from bmcircuits.circuits import Circuit, is_circuit
from bmcircuits.decompose import peel_decompose
from bmcircuits.errors import FormatError, OutOfRangeError
from bmcircuits.formats import (
    DEC_KINDS,
    Decomposition,
    check_decomposition,
    check_oddcover,
    check_partition,
    format_bm,
    format_bmdec,
    parse_bm,
    parse_bmdec,
)
from bmcircuits.gf2core import MAX_DIM, BinaryMatroid, Gf2Eliminator, greedy_basis
from bmcircuits.generators import complete_matroid, independent_copies
from bmcircuits.oddcover import OddCover, symdiff_reduce
from conftest import GOOD_KEY_BLOCKS, KEY_BLOCK_FAULTS


#: 4-character lines that int(line, 2) parses but that are not 0/1 strings
INT_ONLY_LINES = ("1_01", "+101", "0b11", "\uff11\uff10\uff11\uff10")

#: malformed vector lines, the dimension of their file, and the message that
#: both parsers raise for them
MALFORMED_LINES = [
    ("101", 4, "expected a 4-character line over 0/1, got '101'"),
    ("10101", 4, "expected a 4-character line over 0/1, got '10101'"),
    ("01_0", 4, "expected a 4-character line over 0/1, got '01_0'"),
    ("1 01", 4, "expected a 4-character line over 0/1, got '1 01'"),
    ("+01", 3, "expected a 3-character line over 0/1, got '+01'"),
    ("0b1", 3, "expected a 3-character line over 0/1, got '0b1'"),
    ("0000", 4, "all-zeros vector is not allowed"),
    ("\u0661\u0660\u0661", 3,  # Arabic-Indic digits, which int(line, 2) reads as 101
     "expected a 3-character line over 0/1, got '\u0661\u0660\u0661'"),
]


class TestBmFormat:
    def test_round_trip(self):
        for m in (complete_matroid(3), independent_copies(2, 3), BinaryMatroid(4)):
            assert parse_bm(format_bm(m)) == m

    def test_comments_and_blanks_ignored(self):
        text = "# generated\ndim 3\n\n# a comment\n110\n011\n101\n"
        m = parse_bm(text)
        assert len(m) == 3

    def test_duplicate_line_reports_line_number(self):
        text = "dim 2\n10\n10\n"
        with pytest.raises(FormatError) as exc:
            parse_bm(text)
        assert exc.value.line == 3

    def test_zero_line_rejected(self):
        with pytest.raises(FormatError) as exc:
            parse_bm("dim 3\n000\n")
        assert exc.value.line == 2

    def test_wrong_width_rejected(self):
        with pytest.raises(FormatError):
            parse_bm("dim 3\n1101\n")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_bm("# nothing\n")

    def test_bad_alphabet(self):
        with pytest.raises(FormatError):
            parse_bm("dim 2\n1x\n")

    @pytest.mark.parametrize("line", INT_ONLY_LINES)
    def test_line_of_the_right_width_that_int_accepts_is_rejected(self, line):
        assert len(line) == 4 and int(line, 2)
        with pytest.raises(FormatError, match="line over 0/1") as exc:
            parse_bm(f"dim 4\n1000\n{line}\n")
        assert exc.value.line == 3


class TestBmdecFormat:
    def test_round_trip_decomposition(self):
        m = complete_matroid(4)
        dec = peel_decompose(m)
        meta = {"branch": dec.branch, "phase1": str(dec.phase1), "phase2": str(dec.phase2)}
        text = format_bmdec("circuits", m.dim, dec.circuits, meta=meta)
        parsed = parse_bmdec(text)
        assert parsed.kind == "circuits"
        assert parsed.dim == 4
        assert len(parsed.blocks) == len(dec.circuits)
        assert parsed.meta["branch"] == dec.branch
        assert parsed.blocks == tuple(c.keys for c in dec.circuits)
        assert parse_bmdec(format_bmdec(
            parsed.kind, parsed.dim, parsed.blocks, meta=parsed.meta
        )) == parsed

    def test_count_mismatch_detected(self):
        text = "circuits 2\ndim 2\n\n10\n01\n11\n"
        with pytest.raises(FormatError):
            parse_bmdec(text)

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse_bmdec("clusters 1\ndim 2\n\n10\n01\n11\n")

    def test_empty_block_list(self):
        parsed = parse_bmdec("circuits 0\ndim 5\n")
        assert parsed.blocks == ()

    @pytest.mark.parametrize("line", INT_ONLY_LINES)
    def test_line_of_the_right_width_that_int_accepts_is_rejected(self, line):
        with pytest.raises(FormatError, match="line over 0/1") as exc:
            parse_bmdec(f"circuits 1\ndim 4\n\n1100\n{line}\n0110\n")
        assert exc.value.line == 5

    @pytest.mark.parametrize("line,dim,message", MALFORMED_LINES)
    def test_malformed_line_error_is_unchanged(self, line, dim, message):
        text = f"circuits 2\ndim {dim}\n# first block\n\n{'1' * dim}\n\n\n{line}\n"
        with pytest.raises(FormatError) as exc:
            parse_bmdec(text)
        assert exc.value.line == 8 and str(exc.value) == f"line 8: {message}"
        with pytest.raises(FormatError) as exc:
            parse_bm(f"dim {dim}\n{'1' * dim}\n{line}\n")
        assert exc.value.line == 3 and str(exc.value) == f"line 3: {message}"

    @given(st.data())
    def test_key_blocks_round_trip(self, data):
        dim = data.draw(st.integers(1, 12), label="dim")
        keys = st.integers(1, (1 << dim) - 1)
        blocks = data.draw(st.lists(st.lists(keys, min_size=1, max_size=6).map(tuple),
                                    max_size=6), label="blocks")
        kind = data.draw(st.sampled_from(DEC_KINDS), label="kind")
        word = st.text("abcxyz019._", min_size=1, max_size=5)
        meta = data.draw(st.dictionaries(word, word, max_size=3), label="meta")
        text = format_bmdec(kind, dim, blocks, meta=meta,
                            block_comment=data.draw(st.sampled_from([None, "part"])))
        filler = st.lists(st.sampled_from(["", "   ", "\t", "# a comment", "#"]), max_size=3)
        padded = []
        for line in text.splitlines():
            if line:
                padded.append(line)
            else:  # a block separator: keep one blank line among the filler
                padded += data.draw(filler) + [""] + data.draw(filler)
        parsed = parse_bmdec("\n".join(padded) + "\n")
        assert parsed == formats.DecFile(kind, dim, tuple(blocks), meta)

    def test_format_gives_these_bytes(self):
        # an empty block, a block comment on every block, and the meta trailer
        text = format_bmdec("indsets", 3, [(0b001, 0b110), (), (0b011,)],
                            meta={"p": 5, "branch": "orbit"}, block_comment="part")
        assert text.encode() == (
            b"indsets 3\ndim 3\n"
            b"\n# part\n001\n110\n"
            b"\n# part\n"
            b"\n# part\n011\n"
            b"\n# p=5 branch=orbit\n"
        )
        assert format_bmdec("circuits", 2, [()]) == "circuits 1\ndim 2\n\n"
        assert format_bmdec("circuits", 2, []) == "circuits 0\ndim 2\n"

    def test_bad_line_past_the_first_chunk_reports_its_line_number(self):
        blocks = [(k, k ^ 0xFF, 0xFF) for k in range(1, 0x7F)] * 30  # 15 122 lines, 106 KB
        lines = format_bmdec("circuits", 8, blocks).splitlines()
        assert len("\n".join(lines[:12000])) > 1 << 16 and lines[12000]
        lines[12000] = "1010101"  # line 12001, a vector line one character short
        with pytest.raises(FormatError) as exc:
            parse_bmdec("\n".join(lines) + "\n")
        assert exc.value.line == 12001


# -- the line-at-a-time reading the run reader replaced, kept as the reference

def reference_parse_dim(token_line, lineno):
    parts = token_line.split()
    if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdecimal():
        raise FormatError(f"expected 'dim <n>', got {token_line!r}", lineno)
    n = int(parts[1])
    if n < 1:
        raise FormatError("dimension must be positive", lineno)
    return n


def reference_parse_key(line, dim, lineno):
    if len(line) != dim or line.strip("01"):
        raise FormatError(f"expected a {dim}-character line over 0/1, got {line!r}", lineno)
    key = int(line, 2)
    if not key:
        raise FormatError("all-zeros vector is not allowed", lineno)
    return key


def reference_parse_bm(text):
    dim = None
    keys, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            dim = reference_parse_dim(line, lineno)
            continue
        key = reference_parse_key(line, dim, lineno)
        if key in seen:
            raise FormatError(f"duplicate vector {line}", lineno)
        seen.add(key)
        keys.append(key)
    if dim is None:
        raise FormatError("missing 'dim <n>' header")
    return BinaryMatroid(dim, keys)


def reference_parse_bmdec(text):
    kind = count = dim = None
    blocks, current, meta = [], [], {}
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
        elif dim is not None:
            current.append(reference_parse_key(line, dim, lineno))
            if dim > MAX_DIM:
                raise OutOfRangeError(f"dimension {dim} not in 1..{MAX_DIM}")
        elif kind is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in DEC_KINDS or not parts[1].isdecimal():
                raise FormatError(
                    f"expected '<kind> <count>' header with kind in {DEC_KINDS}", lineno
                )
            kind, count = parts[0], int(parts[1])
        else:
            dim = reference_parse_dim(line, lineno)
    if current:
        blocks.append(tuple(current))
    if kind is None:
        raise FormatError("missing '<kind> <count>' header")
    if dim is None:
        raise FormatError("missing 'dim <n>' line")
    if count != len(blocks):
        raise FormatError(f"header announces {count} blocks, found {len(blocks)}")
    return formats.DecFile(kind, dim, tuple(blocks), meta)


def reference_format_bmdec(kind, dim, blocks, meta=None, block_comment=None):
    if kind not in DEC_KINDS:
        raise FormatError(f"unknown kind {kind!r}")
    spec = f"0{dim}b"
    head = f"\n# {block_comment}" if block_comment else ""
    parts = [f"{kind} {len(blocks)}\ndim {dim}"]
    for i, block in enumerate(blocks):
        keys = block.keys if isinstance(block, Circuit) else block
        try:
            parts.append("\n".join([head, *[format(k, spec) for k in keys]]))
        except (TypeError, ValueError) as err:
            raise FormatError(
                f"block {i} is neither a Circuit nor a collection of int keys"
            ) from err
    if meta:
        parts.append("\n# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    return "\n".join(parts) + "\n"


def outcome(function, *args, **kwargs):
    """What a call returns, or the type, message and line number of what it raises."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


#: line breaks that str.splitlines() honours; \n most often, so that runs form
SEPARATORS = ["\n"] * 8 + ["\r\n", "\r", "\x0c", "\x1c", "\u2028"]

#: a valid vector line most often, then each way to spoil one
VECTOR_SHAPES = ["valid"] * 16 + ["zero", "short", "long", "space", "tab", "underscore",
                                 "two", "1_01"]

FILLER_LINES = ["", "   ", "\t", "# a comment", "# branch=orbit p=5", "#k=v", "#",
                "circuits 1", "dim 3"]


@st.composite
def vector_lines(draw, dim, shapes):
    line = format(draw(st.integers(1, min(1 << dim, 256) - 1)), f"0{dim}b")
    return {
        "valid": line, "zero": "0" * dim, "short": line[1:], "long": line + "1",
        "space": " " + line, "tab": line + "\t", "underscore": line[:-1] + "_",
        "two": "2" + line[1:], "1_01": "1_01",
    }[draw(st.sampled_from(shapes))]


@st.composite
def dec_texts(draw):
    """(dim, text): a .bmdec-like text of blocks of vector lines, with its
    header lines, fillers and line breaks drawn. Half the texts are clean:
    valid vector lines, blank and comment fillers, and a sound header most
    often; in the others any line may be spoiled."""
    dim = draw(st.sampled_from([1, 2, 3, 3, 4, 4, 5, MAX_DIM + 1]))
    clean = draw(st.booleans())
    fillers = FILLER_LINES[:7] if clean else FILLER_LINES
    line = st.one_of(vector_lines(dim, ["valid"] if clean else VECTOR_SHAPES),
                     vector_lines(dim, ["valid"]), vector_lines(dim, ["valid"]),
                     st.sampled_from(fillers))
    blocks = draw(st.lists(st.lists(line, min_size=1, max_size=8), max_size=5))
    count = draw(st.sampled_from([len(blocks)] * 6 + [0, 1, "\u00b3"]))
    kind_line = draw(st.sampled_from([f"circuits {count}"] * 6 + [f"indsets {count}",
                                      f"clusters {count}", "", "# kind=none"]))
    dim_line = draw(st.sampled_from([f"dim {dim}"] * 8 + [
        f"  dim   {dim}", "dim \u00b2", "dim 0", "dim x", f"dim {dim} 1"]))
    lines = [kind_line, dim_line]
    for block in blocks:
        lines += draw(st.lists(st.sampled_from(FILLER_LINES[:7]), max_size=2))
        lines += [""] + block
    text = "".join(line + draw(st.sampled_from(SEPARATORS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no line break after the last line
    return dim, text


class TestRunReader:
    """parse_bm and parse_bmdec read canonical vector lines a run at a time;
    on any text they must give what the line-at-a-time reference gives: an
    equal result, or an exception of the same type, message and line number.
    Runs are also cut to 1-3 lines, so that they end inside a block."""

    @settings(max_examples=300)
    @given(dec_texts(), st.integers(1, 3))
    def test_parsers_equal_the_line_at_a_time_reference(self, dim_text, cap):
        dim, text = dim_text
        for parse, reference in ((parse_bmdec, reference_parse_bmdec),
                                 (parse_bm, reference_parse_bm)):
            expected = outcome(reference, text)
            assert outcome(parse, text) == expected
            with mock.patch.object(formats, "_RUN_CHARS", cap * (dim + 1)):
                assert outcome(parse, text) == expected
            # without the header that only .bmdec has, parse_bm meets the dim line first
            bare = text.partition("\n")[2]
            assert outcome(parse, bare) == outcome(reference, bare)

    @settings(max_examples=200)
    @given(st.data())
    def test_format_bmdec_equals_the_per_key_join(self, data):
        dim = data.draw(st.integers(2, 6), label="dim")
        pool = peel_decompose(complete_matroid(dim)).circuits
        keys = st.lists(st.integers(1, (1 << dim) - 1), max_size=5)
        block = st.one_of(
            st.sampled_from(pool),
            keys.map(tuple), keys, keys.map(set), st.just(()),
            st.tuples(keys, st.sampled_from(["101", 2.5, None]), keys).map(
                lambda t: (*t[0], t[1], *t[2])),  # a bad item among int keys
        )
        blocks = data.draw(st.lists(block, max_size=6), label="blocks")
        args = ("circuits", dim, blocks)
        kwargs = {"meta": data.draw(st.sampled_from([None, {}, {"p": 5, "branch": "orbit"}])),
                  "block_comment": data.draw(st.sampled_from([None, "", "part", "a{0}b}"]))}
        assert outcome(format_bmdec, *args, **kwargs) == outcome(
            reference_format_bmdec, *args, **kwargs)

    @pytest.mark.parametrize("parse, text, line", [
        (parse_bm, "dim \u00b2\n", 1),
        (parse_bmdec, "circuits \u00b3\ndim 2\n", 1),
        (parse_bmdec, "# made by hand\ncircuits 0\ndim \u00b2\n", 3),
    ])
    def test_superscript_numbers_are_format_errors(self, parse, text, line):
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert exc.value.line == line

    WIDE = "1" * (MAX_DIM + 1)

    @pytest.mark.parametrize("body, error, line", [
        (WIDE + "\n", OutOfRangeError, None),  # in a run
        (" " + WIDE + "\n", OutOfRangeError, None),  # a line at a time
        (WIDE + "\n" + "0" * (MAX_DIM + 1) + "\n", OutOfRangeError, None),
        ("0" * (MAX_DIM + 1) + "\n" + WIDE + "\n", FormatError, 4),
        (WIDE[1:] + "\n", FormatError, 4),
    ])
    def test_dimension_over_the_cap_fails_at_the_first_vector_line(self, body, error, line):
        with pytest.raises(error) as exc:
            parse_bmdec(f"circuits 1\ndim {MAX_DIM + 1}\n\n{body}")
        assert getattr(exc.value, "line", None) == line

    def test_a_repeat_is_reported_at_its_first_repeat(self):
        text = "dim 3\n001\n010\n100\n# ok\n011\n 100\n010\n"
        with pytest.raises(FormatError) as exc:
            parse_bm(text)
        assert str(exc.value) == "line 7: duplicate vector 100"
        with pytest.raises(FormatError) as exc:
            parse_bm("dim 3\n001\n010\n011\n010\n001\n")
        assert str(exc.value) == "line 5: duplicate vector 010"


class TestSemanticChecks:
    def test_decomposition_pass_and_fail(self):
        m = complete_matroid(3)
        dec = peel_decompose(m)
        good = parse_bmdec(format_bmdec("circuits", 3, dec.circuits))
        assert check_decomposition(m, good.dim, good.blocks) is None
        truncated = parse_bmdec(format_bmdec("circuits", 3, dec.circuits[:1]))
        assert check_decomposition(m, truncated.dim, truncated.blocks) is not None

    def test_oddcover_check(self):
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
        tri = Circuit(2, [0b01, 0b10, 0b11])
        once = parse_bmdec(format_bmdec("oddcover", 2, [tri]))
        assert check_oddcover(m, once.dim, once.blocks) is None
        twice = parse_bmdec(format_bmdec("oddcover", 2, [tri, tri]))
        assert check_oddcover(m, twice.dim, twice.blocks) is not None

    def test_partition_check(self):
        m = BinaryMatroid(2, [0b10, 0b01, 0b11])
        ok = parse_bmdec(format_bmdec(
            "indsets", 2, [(0b01, 0b10), (0b11,)],
            block_comment="independent-set",
        ))
        assert check_partition(m, ok.dim, ok.blocks) is None
        bad = parse_bmdec(format_bmdec(
            "indsets", 2, [(0b01, 0b10, 0b11)]
        ))
        assert check_partition(m, bad.dim, bad.blocks) is not None


CHECKERS = {
    "decomposition": check_decomposition,
    "oddcover": check_oddcover,
    "partition": check_partition,
}


class TestKeyBlockChecks:
    @pytest.mark.parametrize("mode", list(CHECKERS))
    def test_good_key_blocks_pass(self, mode):
        assert CHECKERS[mode](complete_matroid(3), 3, GOOD_KEY_BLOCKS[mode]) is None

    @pytest.mark.parametrize("fault", list(KEY_BLOCK_FAULTS))
    @pytest.mark.parametrize("mode", list(CHECKERS))
    def test_faults_give_a_reason_not_an_exception(self, mode, fault):
        blocks = KEY_BLOCK_FAULTS[fault](GOOD_KEY_BLOCKS[mode])
        reason = CHECKERS[mode](complete_matroid(3), 3, blocks)
        assert isinstance(reason, str)
        if fault in ("zero key", "key of 2**dim", "negative key", "out-of-range circuit twice"):
            assert reason.endswith("is not a nonzero vector of dimension 3")
        if (mode, fault) == ("partition", "duplicate key in a block"):
            assert reason == "block 0 repeats vector 001"

    def test_key_blocks_go_through_is_circuit_and_circuits_do_not(self, monkeypatch):
        m = complete_matroid(3)
        called = []

        def counting_is_circuit(block):
            called.append(tuple(block))
            return is_circuit(block)

        monkeypatch.setattr(formats, "is_circuit", counting_is_circuit)
        assert check_decomposition(m, 3, GOOD_KEY_BLOCKS["decomposition"]) is None
        assert called == [(1, 2, 3), (4, 5, 6, 7)]
        circuits = [Circuit(3, b) for b in GOOD_KEY_BLOCKS["oddcover"]]
        assert check_decomposition(m, 3, circuits) is None
        assert check_oddcover(m, 3, circuits) is None
        assert len(called) == 2

    def test_a_circuit_is_tested_by_its_dimension(self):
        m = complete_matroid(3)
        wide = Circuit(4, (1, 2, 3))
        assert "dimension 3" in check_decomposition(m, 3, [wide])
        assert "dimension 3" in check_oddcover(m, 3, [wide])


OUTSIDE = "block 0 has a vector that is not a nonzero vector of dimension 3"


class TestVectorBlocks:
    """Blocks of vectors in another form than int keys, such as bit strings,
    are neither key tuples nor Circuits: the checkers give a reason and
    format_bmdec a FormatError, never a TypeError."""

    @pytest.mark.parametrize("mode", list(CHECKERS))
    def test_checkers_give_a_reason(self, mode):
        strings = [[format(k, "03b") for k in b] for b in GOOD_KEY_BLOCKS[mode]]
        assert CHECKERS[mode](complete_matroid(3), 3, strings) == OUTSIDE

    def test_non_int_between_int_ends(self):
        """The ends of (1, 2.5, 3) pass the block's range test; the float
        fails the block's processing, which each checker turns into a reason."""
        m = complete_matroid(3)
        for check in CHECKERS.values():
            assert check(m, 3, [(1, 2.5, 3)]) == OUTSIDE
        with pytest.raises(FormatError, match="^block 0 is neither a Circuit"):
            format_bmdec("circuits", 3, [(1, 2.5, 3)])

    def test_api_blocks(self):
        """What the API hands out is int keys, which the checkers take."""
        m = complete_matroid(3)
        blocks = [c.keys for c in peel_decompose(m).circuits]
        assert check_decomposition(m, 3, blocks) is None
        assert check_oddcover(m, 3, blocks) is None
        basis = greedy_basis(m.keys, m.dim)
        rest = tuple(k for k in m.keys if k not in basis)
        assert check_partition(m, 3, [basis, rest]) == "block 1 is not independent"
        assert check_partition(m, 3, [basis]) == "union of blocks differs from the matroid"

    def test_format_bmdec_names_the_block(self):
        circuits = peel_decompose(complete_matroid(3)).circuits
        strings = [format(k, "03b") for k in circuits[1].keys]
        with pytest.raises(FormatError, match="^block 1 is neither a Circuit"):
            format_bmdec("circuits", 3, [circuits[0], strings])


class TestArtifactTypes:
    def test_circuits_are_not_checked_again(self, monkeypatch):
        m = complete_matroid(5)
        parts = peel_decompose(m).circuits
        cover = symdiff_reduce(m).circuits
        built = []
        init = Gf2Eliminator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Gf2Eliminator, "__init__", counting_init)
        Decomposition(m, parts)
        OddCover(m, cover)
        assert built == []
