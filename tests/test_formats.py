import pytest

from bmcircuits.circuits import Circuit
from bmcircuits.decompose import peel_decompose
from bmcircuits.errors import FormatError
from bmcircuits.formats import (
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


def vec(bits):
    return Gf2Vector.from_bits(bits)


#: 4-character lines that int(line, 2) parses but that are not 0/1 strings
INT_ONLY_LINES = ("1_01", "+101", "0b11", "\uff11\uff10\uff11\uff10")


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
        assert parse_bmdec(format_bmdec(
            parsed.kind, parsed.dim, list(parsed.blocks), meta=parsed.meta
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
