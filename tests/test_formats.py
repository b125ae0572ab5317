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
    format_circuit,
    parse_bm,
    parse_bmdec,
)
from bmcircuits.gf2core import BinaryMatroid, Gf2Eliminator, Gf2Vector
from bmcircuits.generators import complete_matroid, independent_copies
from bmcircuits.oddcover import OddCover, symdiff_reduce
from conftest import GOOD_KEY_BLOCKS, KEY_BLOCK_FAULTS


def vec(bits):
    return Gf2Vector.from_bits(bits)


#: 4-character lines that int(line, 2) parses but that are not 0/1 strings
INT_ONLY_LINES = ("1_01", "+101", "0b11", "\uff11\uff10\uff11\uff10")

#: malformed vector lines, the dimension of their file, and the message that
#: both parsers raised for them while they still built one Gf2Vector per line
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
        text = format_bmdec("circuits", m.dim, [c.elements for c in dec.circuits], meta=meta)
        parsed = parse_bmdec(text)
        assert parsed.kind == "circuits"
        assert parsed.dim == 4
        assert len(parsed.blocks) == len(dec.circuits)
        assert parsed.meta["branch"] == dec.branch
        assert parsed.blocks == tuple(tuple(v.key for v in c.elements) for c in dec.circuits)
        vectors = [[Gf2Vector(parsed.dim, k) for k in b] for b in parsed.blocks]
        assert parse_bmdec(format_bmdec(
            parsed.kind, parsed.dim, vectors, meta=parsed.meta
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
        text = format_bmdec(kind, dim, [[Gf2Vector(dim, k) for k in b] for b in blocks],
                            meta=meta, block_comment=data.draw(st.sampled_from([None, "part"])))
        filler = st.lists(st.sampled_from(["", "   ", "\t", "# a comment", "#"]), max_size=3)
        padded = []
        for line in text.splitlines():
            if line:
                padded.append(line)
            else:  # a block separator: keep one blank line among the filler
                padded += data.draw(filler) + [""] + data.draw(filler)
        parsed = parse_bmdec("\n".join(padded) + "\n")
        assert parsed == formats.DecFile(kind, dim, tuple(blocks), meta)

    def test_circuit_block_file(self):
        c = Circuit([vec("10"), vec("01"), vec("11")])
        text = format_circuit(c)
        m = parse_bm(text)
        assert set(m.key_set) == set(c.key_set)


class TestSemanticChecks:
    def test_decomposition_pass_and_fail(self):
        m = complete_matroid(3)
        dec = peel_decompose(m)
        good = parse_bmdec(format_bmdec("circuits", 3, [c.elements for c in dec.circuits]))
        assert check_decomposition(m, good.dim, good.blocks) is None
        truncated = parse_bmdec(format_bmdec("circuits", 3, [dec.circuits[0].elements]))
        assert check_decomposition(m, truncated.dim, truncated.blocks) is not None

    def test_oddcover_check(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        tri = [vec("01"), vec("10"), vec("11")]
        once = parse_bmdec(format_bmdec("oddcover", 2, [tuple(tri)]))
        assert check_oddcover(m, once.dim, once.blocks) is None
        twice = parse_bmdec(format_bmdec("oddcover", 2, [tuple(tri), tuple(tri)]))
        assert check_oddcover(m, twice.dim, twice.blocks) is not None

    def test_partition_check(self):
        m = BinaryMatroid(2, [vec("10"), vec("01"), vec("11")])
        ok = parse_bmdec(format_bmdec(
            "indsets", 2, [(vec("01"), vec("10")), (vec("11"),)],
            block_comment="independent-set",
        ))
        assert check_partition(m, ok.dim, ok.blocks) is None
        bad = parse_bmdec(format_bmdec(
            "indsets", 2, [(vec("01"), vec("10"), vec("11"))]
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

    def test_key_blocks_go_through_is_circuit_and_circuits_do_not(self, monkeypatch):
        m = complete_matroid(3)
        called = []

        def counting_is_circuit(block):
            called.append(tuple(block))
            return is_circuit(block)

        monkeypatch.setattr(formats, "is_circuit", counting_is_circuit)
        assert check_decomposition(m, 3, GOOD_KEY_BLOCKS["decomposition"]) is None
        assert called == [(1, 2, 3), (4, 5, 6, 7)]
        circuits = [Circuit.from_keys(3, b) for b in GOOD_KEY_BLOCKS["oddcover"]]
        assert check_decomposition(m, 3, circuits) is None
        assert check_oddcover(m, 3, circuits) is None
        assert len(called) == 2

    def test_a_circuit_is_tested_by_its_dimension(self):
        m = complete_matroid(3)
        wide = Circuit.from_keys(4, (1, 2, 3))
        assert "dimension 3" in check_decomposition(m, 3, [wide])
        assert "dimension 3" in check_oddcover(m, 3, [wide])


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
