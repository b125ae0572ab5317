import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmcircuits import formats
from bmcircuits.circuits import Circuit, is_circuit
from bmcircuits.decompose import peel_decompose
from bmcircuits.errors import FormatError
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
from bmcircuits.gf2core import BinaryMatroid, Gf2Eliminator, greedy_basis
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

    @given(st.lists(st.sampled_from(["0", "1", " ", "#", "\n", "\r", "\x0c", "\r\n", "\n\n\n"]),
                    max_size=40).map("".join),
           st.integers(1, 6))
    def test_line_helper_equals_splitlines(self, text, chunk):
        assert list(formats._lines(text, chunk)) == text.splitlines()
        assert list(formats._lines(text)) == text.splitlines()


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
