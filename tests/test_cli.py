import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from bmcircuits import cli, formats
from bmcircuits.cli import REPORT_FIELDS, run
from bmcircuits.formats import ARTIFACT_KINDS, DecFile, format_bmdec
from bmcircuits.circuits import Circuit
from bmcircuits.gf2core import BinaryMatroid
from bmcircuits.orbit import orbit_decompose
from conftest import GOOD_KEY_BLOCKS, KEY_BLOCK_FAULTS


def records(capsys):
    out = capsys.readouterr().out.strip()
    return [json.loads(line) for line in out.splitlines() if line]


class TestGen:
    def test_complete(self, tmp_path, capsys):
        out = tmp_path / "c4.bm"
        assert run(["gen", "--kind", "complete", "--n", "4", "--out", str(out)]) == 0
        (rec,) = records(capsys)
        assert rec["size"] == 15 and rec["verified"] is True

    def test_random_is_seed_stable(self, tmp_path, capsys):
        a = tmp_path / "a.bm"
        b = tmp_path / "b.bm"
        run(["gen", "--kind", "random", "--n", "8", "--size", "20",
             "--seed", "5", "--out", str(a)])
        run(["gen", "--kind", "random", "--n", "8", "--size", "20",
             "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv, seed", [
        (["--kind", "complete", "--n", "3"], None),
        (["--kind", "copies", "--k", "2", "--s", "2"], None),
        (["--kind", "random", "--n", "4", "--size", "5"], 5),
    ], ids=["complete", "copies", "random"])
    def test_seed_field_is_the_seed_used(self, argv, seed, tmp_path, capsys):
        # complete and copies take no seed, so --seed is a usage error for them
        out = tmp_path / "x.bm"
        rc = run(["gen", *argv, "--seed", "5", "--out", str(out)])
        captured = capsys.readouterr()
        if seed is None:
            assert rc == 1 and captured.out == "" and not out.exists()
            assert captured.err == f"error: gen --kind {argv[1]} takes no --seed\n"
        else:
            assert rc == 0 and json.loads(captured.out)["seed"] == seed

    def test_random_seed_defaults_to_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.bm", tmp_path / "b.bm"
        assert run(["gen", "--kind", "random", "--n", "4", "--size", "5", "--out", str(a)]) == 0
        assert run(["gen", "--kind", "random", "--n", "4", "--size", "5", "--seed", "0",
                    "--out", str(b)]) == 0
        assert [rec["seed"] for rec in records(capsys)] == [0, 0]
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv", [
        ["--kind", "copies", "--k", "1", "--s", "40"],
        ["--kind", "random", "--n", "40", "--size", "1000000000000"],
    ], ids=["copies", "random"])
    def test_instance_over_the_element_cap_exit1(self, argv, tmp_path, capsys):
        out = tmp_path / "x.bm"
        assert run(["gen", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and not out.exists()

    def test_missing_args_usage_error(self, tmp_path, capsys):
        assert run(["gen", "--kind", "complete", "--out", str(tmp_path / "x.bm")]) == 1

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "random", "--n", "4", "--size", "5", "--seed", "-1",
         "--out", "{tmp}/r.bm"],
    ], ids=["gen"])
    def test_negative_seed_is_an_input_error(self, argv, tmp_path, capsys):
        assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed -1 is negative\n"
        assert "Traceback" not in captured.err


class TestParser:
    def test_commands_in_one_process_share_no_state(self, tmp_path, capsys):
        path = tmp_path / "c3.bm"
        assert run(["gen", "--kind", "complete", "--n", "3", "--out", str(path)]) == 0
        assert run(["oracle", "--in", str(path), "--what", "c"]) == 0
        gen, oracle = records(capsys)
        assert gen["size"] == 7 and oracle["c"] == 2
        assert run(["oracle", "--in", str(path)]) == 1  # --what is required
        assert "the following arguments are required: --what" in capsys.readouterr().err
        assert cli.build_parser() is cli.build_parser()
        args = cli.build_parser().parse_args(["oracle", "--in", "x", "--what", "c"])
        assert not hasattr(args, "kind") and not hasattr(args, "seed")


class TestDecomposeVerify:
    @pytest.fixture()
    def instance(self, tmp_path):
        path = tmp_path / "m.bm"
        run(["gen", "--kind", "complete", "--n", "5", "--out", str(path)])
        return path

    def test_pipeline(self, instance, tmp_path, capsys):
        out = tmp_path / "m.bmdec"
        code = run(["decompose", "--in", str(instance), "--method", "auto",
                    "--eps", "0.5", "--out", str(out)])
        assert code == 0
        rec = records(capsys)[-1]
        assert rec["verified"] is True
        assert rec["branch"] in ("dense", "sparse", "trivial")
        assert rec["circuits"] >= rec["quotient_bound"]
        assert run(["verify", "--in", str(instance), "--against", str(out),
                    "--mode", "decomposition"]) == 0

    def test_all_methods(self, instance, tmp_path, capsys):
        for method in ("auto", "peel"):
            out = tmp_path / f"{method}.bmdec"
            assert run(["decompose", "--in", str(instance), "--method", method,
                        "--out", str(out)]) == 0
        capsys.readouterr()
        for method in ("dense", "log"):  # auto_decompose picks the labels
            assert run(["decompose", "--in", str(instance), "--method", method,
                        "--out", str(tmp_path / "x.bmdec")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_verify_detects_tampering(self, instance, tmp_path, capsys):
        out = tmp_path / "m.bmdec"
        run(["decompose", "--in", str(instance), "--out", str(out)])
        lines = out.read_text().splitlines()
        # drop one vector line from the first block
        victim = next(i for i, l in enumerate(lines)
                      if l and not l.startswith(("circuits", "dim", "#")))
        tampered = lines[:victim] + lines[victim + 1:]
        out.write_text("\n".join(tampered) + "\n")
        assert run(["verify", "--in", str(instance), "--against", str(out),
                    "--mode", "decomposition"]) == 2

    def test_malformed_input_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.bm"
        bad.write_text("dim 3\n11\n")
        assert run(["decompose", "--in", str(bad), "--out",
                    str(tmp_path / "x.bmdec")]) == 1

    def test_non_utf8_input_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.bm"
        bad.write_bytes(b"dim 2\n\xff\xfe\n")
        assert run(["decompose", "--in", str(bad), "--out",
                    str(tmp_path / "x.bmdec")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_directory_as_input_exit1(self, tmp_path, capsys):
        assert run(["decompose", "--in", str(tmp_path), "--out",
                    str(tmp_path / "x.bmdec")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_directory_as_output_exit1(self, instance, tmp_path, capsys):
        assert run(["decompose", "--in", str(instance), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("eps", ["abc", "inf", "nan", "1/0", "", "0", "-1"])
    def test_bad_eps_exit1_without_traceback(self, eps, instance, tmp_path, capsys):
        triangle = tmp_path / "c2.bm"  # trivial branch: the epsilon is checked first
        run(["gen", "--kind", "complete", "--n", "2", "--out", str(triangle)])
        capsys.readouterr()
        for m in (instance, triangle):
            for method in ("auto", "peel"):  # peel reads no epsilon, but refuses a bad one
                assert run(["decompose", "--in", str(m), "--method", method, "--eps", eps,
                            "--out", str(tmp_path / "x.bmdec")]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["decompose", "oddcover", "oracle"])
    def test_exhaustive_limit_is_not_an_option(self, command, tmp_path, capsys):
        m = tmp_path / "c3.bm"  # small enough for every command to succeed
        run(["gen", "--kind", "complete", "--n", "3", "--out", str(m)])
        tail = ["--what", "c"] if command == "oracle" else ["--out", str(tmp_path / "x.bmdec")]
        assert run([command, "--in", str(m), "--exhaustive-limit", "30", *tail]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_auto_on_admissible_complete_meets_the_bound(self, tmp_path, capsys):
        m = tmp_path / "c10.bm"
        run(["gen", "--kind", "complete", "--n", "10", "--out", str(m)])
        assert run(["decompose", "--in", str(m), "--method", "auto",
                    "--out", str(tmp_path / "c10.bmdec")]) == 0
        rec = records(capsys)[-1]
        assert rec["branch"] == "orbit" and rec["verified"] is True
        assert rec["circuits"] == rec["quotient_bound"] == 93

    def test_dense_on_sparse_input_exit1(self, tmp_path, capsys):
        # auto_decompose owns the density test, so dense and log are no methods
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "copies", "--k", "5", "--s", "2", "--out", str(m)])
        capsys.readouterr()
        for method in ("dense", "log"):
            assert run(["decompose", "--in", str(m), "--method", method,
                        "--out", str(tmp_path / "x.bmdec")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err and not (tmp_path / "x.bmdec").exists()


class TestVerifyRejects:
    @pytest.fixture()
    def c3(self, tmp_path, capsys):
        path = tmp_path / "c3.bm"
        run(["gen", "--kind", "complete", "--n", "3", "--out", str(path)])
        capsys.readouterr()
        return path

    def verify(self, c3, artifact, mode, capsys):
        code = run(["verify", "--in", str(c3), "--against", str(artifact), "--mode", mode])
        return code, capsys.readouterr()

    def test_vector_line_beyond_the_dimension_cap_exit1(self, c3, tmp_path, capsys):
        artifact = tmp_path / "wide.bmdec"
        artifact.write_text("circuits 1\ndim 5000\n\n" + "0" * 4999 + "1\n")
        code, captured = self.verify(c3, artifact, "decomposition", capsys)
        assert code == 1 and captured.out == ""
        assert captured.err == "error: dimension 5000 not in 1..4096\n"

    @pytest.mark.parametrize("command, text", [
        ("decompose", "dim \u00b2\n110\n"),
        ("verify", "circuits \u00b3\ndim 3\n"),
    ])
    def test_superscript_number_exit1(self, command, text, c3, tmp_path, capsys):
        """str.isdigit() takes a superscript digit that int() refuses."""
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        argv = {"decompose": ["decompose", "--in", str(bad), "--out", str(tmp_path / "x")],
                "verify": ["verify", "--in", str(c3), "--against", str(bad),
                           "--mode", "decomposition"]}[command]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: line 1: ")
        assert "Traceback" not in captured.err

    def test_header_only_file_beyond_the_dimension_cap_exit2(self, c3, tmp_path, capsys):
        artifact = tmp_path / "wide.bmdec"
        artifact.write_text("circuits 0\ndim 5000\n")
        code, captured = self.verify(c3, artifact, "decomposition", capsys)
        assert code == 2
        assert captured.err == "verification failed: dimension mismatch: 5000 vs 3\n"

    @pytest.mark.parametrize("fault", list(KEY_BLOCK_FAULTS))
    @pytest.mark.parametrize("mode", list(GOOD_KEY_BLOCKS))
    def test_key_block_faults_exit2(self, mode, fault, c3, tmp_path, capsys, monkeypatch):
        """Faults a file can hold are written to one; a key no vector line can
        spell (0, 2**dim, negative) reaches the checker through the parser's name."""
        blocks = KEY_BLOCK_FAULTS[fault](GOOD_KEY_BLOCKS[mode])
        kind = ARTIFACT_KINDS[mode].dec_kind
        artifact = tmp_path / "bad.bmdec"
        artifact.write_text(f"{kind} {len(blocks)}\ndim 3\n" + "".join(
            "\n" + "".join(f"{k:03b}\n" for k in block) for block in blocks))
        if not all(0 < k < 8 for block in blocks for k in block):
            monkeypatch.setattr(cli, "parse_bmdec", lambda text: DecFile(kind, 3, blocks))
        code, captured = self.verify(c3, artifact, mode, capsys)
        assert code == 2 and json.loads(captured.out)["verified"] is False
        assert captured.err.startswith("verification failed: ")
        assert "Traceback" not in captured.err


class TestWritePathRunsEachLawOnce:
    """The re-check after a write takes each block that reads back as the
    Circuit written at its position as that Circuit, so is_circuit does not
    run again on it; a block that reads back otherwise, and every block
    verify reads, gets the full circuit law."""

    COMMANDS = {
        "decompose": ["decompose", "--in", "{tmp}/r8.bm", "--out", "{tmp}/out.bmdec"],
        "oddcover": ["oddcover", "--in", "{tmp}/r8.bm", "--out", "{tmp}/out.bmdec"],
        "orbit": ["orbit", "--p", "11", "--out", "{tmp}/out.bmdec"],
    }

    @pytest.fixture()
    def laws(self, tmp_path, monkeypatch, capsys):
        """The key tuples formats.is_circuit is called on from now on."""
        run(["gen", "--kind", "random", "--n", "8", "--size", "60", "--seed", "4",
             "--out", str(tmp_path / "r8.bm")])
        capsys.readouterr()
        calls = []
        real = formats.is_circuit

        def counting(keys):
            calls.append(tuple(keys))
            return real(keys)

        monkeypatch.setattr(formats, "is_circuit", counting)
        return calls

    def argv(self, command, tmp_path):
        return [a.replace("{tmp}", str(tmp_path)) for a in self.COMMANDS[command]]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_untouched_artifact_runs_no_law_again(self, command, laws, tmp_path, capsys):
        assert run(self.argv(command, tmp_path)) == 0
        assert records(capsys)[-1]["verified"] is True
        assert laws == []

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_block_changed_before_the_write_gets_the_full_law(
            self, command, laws, tmp_path, monkeypatch, capsys):
        real = cli.format_bmdec
        altered = []

        def altering(kind, dim, blocks, *rest):
            last = blocks[-1].keys
            altered.append((last[0] ^ (2 if last[0] == 1 else 1),) + last[1:])
            return real(kind, dim, [*blocks[:-1], altered[0]], *rest)

        monkeypatch.setattr(cli, "format_bmdec", altering)
        assert run(self.argv(command, tmp_path)) == 2
        captured = capsys.readouterr()
        rec = json.loads(captured.out)
        assert rec["verified"] is False
        last = rec["circuits"] - 1
        assert captured.err == f"verification failed: block {last} is not a circuit\n"
        assert laws == altered

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_verify_runs_the_law_on_every_block(self, command, laws, tmp_path, capsys):
        argv = self.argv(command, tmp_path)
        assert run(argv) == 0
        laws.clear()
        source = str(tmp_path / "r8.bm")
        if command == "orbit":  # the model of p = 11, as a .bm file
            source = str(tmp_path / "model.bm")
            Path(source).write_text(cli.format_bm(orbit_decompose(11).source))
        blocks = cli.parse_bmdec((tmp_path / "out.bmdec").read_text()).blocks
        mode = "oddcover" if command == "oddcover" else "decomposition"
        assert run(["verify", "--in", source, "--against", argv[-1], "--mode", mode]) == 0
        assert laws == list(blocks)


class TestOddcoverArboricity:
    def test_oddcover(self, tmp_path, capsys):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "copies", "--k", "2", "--s", "3", "--out", str(m)])
        out = tmp_path / "m.cover"
        assert run(["oddcover", "--in", str(m), "--out", str(out)]) == 0
        rec = records(capsys)[-1]
        assert rec["verified"] is True and rec["arboricity"] == 3
        assert run(["verify", "--in", str(m), "--against", str(out),
                    "--mode", "oddcover"]) == 0

    def test_arboricity(self, tmp_path, capsys):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "complete", "--n", "3", "--out", str(m)])
        out = tmp_path / "m.part"
        assert run(["arboricity", "--in", str(m), "--out", str(out)]) == 0
        rec = records(capsys)[-1]
        assert rec["arboricity"] == 3
        assert run(["verify", "--in", str(m), "--against", str(out),
                    "--mode", "partition"]) == 0


class TestOrbit:
    def test_p5(self, tmp_path, capsys):
        out = tmp_path / "p5.bmdec"
        assert run(["orbit", "--p", "5", "--out", str(out)]) == 0
        rec = records(capsys)[-1]
        assert rec["circuits"] == 3 and rec["verified"] is True

    def test_p7_exit1_with_order_in_message(self, tmp_path, capsys):
        code = run(["orbit", "--p", "7", "--out", str(tmp_path / "x.bmdec")])
        err = capsys.readouterr().err
        assert code == 1
        assert "3" in err

    def test_demo(self, capsys):
        assert run(["orbit", "--demo-p7"]) == 0
        rec = records(capsys)[-1]
        assert rec["order"] == 3 and rec["verified"] is True

    def test_demo_exit2_when_not_verified(self, monkeypatch, capsys):
        report = cli.demonstrate_order_failure()
        broken = dataclasses.replace(report, orbit_is_circuit=True)
        monkeypatch.setattr(cli, "demonstrate_order_failure", lambda: broken)
        assert run(["orbit", "--demo-p7"]) == 2
        assert records(capsys)[-1]["verified"] is False

    def test_admissible_prime_over_cap_exit1(self, tmp_path, capsys):
        assert run(["orbit", "--p", "29", "--out", str(tmp_path / "x.bmdec")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_30_digit_p_exit1_at_once(self, tmp_path, capsys):
        out = tmp_path / "x.bmdec"
        start = time.perf_counter()
        assert run(["orbit", "--p", str(10**29 + 57), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and not out.exists()

    def test_compress(self, tmp_path, capsys):
        out = tmp_path / "p5c.bmdec"
        assert run(["orbit", "--p", "5", "--compress", "--out", str(out)]) == 0
        assert "dim 4" in out.read_text()

    @pytest.mark.parametrize("p", [5, 11])
    def test_compress_writes_each_orbit_without_its_parity_bit(self, p, tmp_path):
        out = tmp_path / "c.bmdec"
        assert run(["orbit", "--p", str(p), "--compress", "--out", str(out)]) == 0
        blocks = [tuple(k >> 1 for k in orbit.keys) for orbit in orbit_decompose(p).circuits]
        assert out.read_text() == format_bmdec("circuits", p - 1, blocks, meta={"p": p})

    def test_compress_builds_the_model_and_its_compression_only(self, tmp_path, monkeypatch):
        built = []
        init = BinaryMatroid.__init__

        def counting_init(self, dim, keys=()):
            built.append(dim)
            init(self, dim, keys)

        monkeypatch.setattr(BinaryMatroid, "__init__", counting_init)
        assert run(["orbit", "--p", "11", "--compress", "--out", str(tmp_path / "c.bmdec")]) == 0
        assert built == [10]

    #: sha256 of each `orbit --p P --compress` artifact as written when the
    #: command still ran the auto_decompose dispatcher
    COMPRESSED_SHA256 = {
        3: "8f81385aa0b7ede1747fb85294d633cdce1c92402958472a0972daf12e28ca94",
        5: "1aa09c3eb260e3824467be2ca44b2acbcfde294a3f92730d52a9602f57dc43ff",
        11: "c61c07c07ac7a50ee90d36f9101297e081d83276b8029e051178de8c4fb72e55",
        13: "8c7c0a457c9788ce6c19607fa43bba2d3b9f658933934ae396f3156ec1410362",
    }

    @pytest.mark.parametrize("p", sorted(COMPRESSED_SHA256))
    def test_compress_runs_no_dispatcher_and_keeps_its_bytes(self, p, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbit --compress ran auto_decompose")

        monkeypatch.setattr(cli, "auto_decompose", refuse)
        out = tmp_path / "c.bmdec"
        assert run(["orbit", "--p", str(p), "--compress", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.COMPRESSED_SHA256[p]


class TestKeyOnlyCommands:
    """Every command reads, builds, checks and writes int keys: gen, orbit
    (the p = 7 demo too), decompose, oddcover by either method, arboricity,
    verify and oracle build every BinaryMatroid and Circuit from Python ints,
    with no vector object and no numpy integer among the keys."""

    @pytest.mark.parametrize("argv", [
        ["orbit", "--p", "13", "--compress", "--out", "{tmp}/out.bmdec"],
        ["orbit", "--p", "11", "--out", "{tmp}/out.bmdec"],
        ["decompose", "--in", "{tmp}/c10.bm", "--out", "{tmp}/out.bmdec"],
        ["decompose", "--in", "{tmp}/r14.bm", "--out", "{tmp}/out.bmdec"],
        ["oddcover", "--in", "{tmp}/r14.bm", "--method", "reduce", "--out", "{tmp}/out.bmdec"],
        ["gen", "--kind", "random", "--n", "14", "--size", "500", "--seed", "3",
         "--out", "{tmp}/out.bm"],
        ["arboricity", "--in", "{tmp}/r14.bm", "--out", "{tmp}/out.bmdec"],
        ["oddcover", "--in", "{tmp}/r14.bm", "--method", "arboricity",
         "--out", "{tmp}/out.bmdec"],
        ["verify", "--in", "{tmp}/r14.bm", "--against", "{tmp}/r14.part", "--mode", "partition"],
        ["oracle", "--in", "{tmp}/c4.bm", "--what", "conjectures"],
        ["orbit", "--demo-p7"],
    ])
    def test_builds_no_vector(self, argv, tmp_path, monkeypatch, capsys):
        run(["gen", "--kind", "complete", "--n", "4", "--out", str(tmp_path / "c4.bm")])
        run(["gen", "--kind", "complete", "--n", "10", "--out", str(tmp_path / "c10.bm")])
        run(["gen", "--kind", "random", "--n", "14", "--size", "500", "--seed", "3",
             "--out", str(tmp_path / "r14.bm")])
        run(["arboricity", "--in", str(tmp_path / "r14.bm"), "--out", str(tmp_path / "r14.part")])
        built, other = [], []
        for cls in (BinaryMatroid, Circuit):
            def recording_init(obj, dim, keys=(), init=cls.__init__):
                init(obj, dim, keys)
                built.append(obj)
                other.extend(k for k in obj.keys if type(k) is not int)

            monkeypatch.setattr(cls, "__init__", recording_init)
        assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
        assert records(capsys)[-1]["verified"] is True
        assert built and other == []


class TestOracleCli:
    def test_conjectures(self, tmp_path, capsys):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "complete", "--n", "4", "--out", str(m)])
        assert run(["oracle", "--in", str(m), "--what", "conjectures"]) == 0
        rec = records(capsys)[-1]
        assert rec["c"] == 3 and rec["conj1"] == "CONSISTENT"

    def test_c_wall_time_excludes_the_density_bound(self, tmp_path, capsys, monkeypatch):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "copies", "--k", "6", "--s", "2", "--out", str(m)])
        real = cli.density_lower_bound

        def slow(matroid):
            time.sleep(0.2)
            return real(matroid)

        monkeypatch.setattr(cli, "density_lower_bound", slow)
        assert run(["oracle", "--in", str(m), "--what", "c"]) == 0
        rec = records(capsys)[-1]
        assert rec["c"] == 6 and rec["prop4"] == 2  # ceil(18 / (12 + 1))
        assert rec["wall_time_s"] < 0.1

    def test_circuit_count(self, tmp_path, capsys):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "complete", "--n", "3", "--out", str(m)])
        assert run(["oracle", "--in", str(m), "--what", "circuits"]) == 0
        assert records(capsys)[-1]["circuits"] == 14


class TestSchemaStability:
    def test_same_keys_everywhere(self, tmp_path, capsys):
        m = tmp_path / "m.bm"
        run(["gen", "--kind", "complete", "--n", "3", "--out", str(m)])
        run(["decompose", "--in", str(m), "--out", str(tmp_path / "d.bmdec")])
        run(["oracle", "--in", str(m), "--what", "c"])
        run(["orbit", "--demo-p7"])
        for rec in records(capsys):
            assert tuple(rec.keys()) == REPORT_FIELDS

    def test_unknown_subcommand_exit1(self, capsys):
        assert run(["frobnicate"]) == 1
        assert run(["bench", "--seed", "0"]) == 1  # retired
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


#: Golden CLI runs: per scenario, the argv of each step (with {tmp} for the
#: scratch directory) and its exit code, stdout (JSON records parsed, with
#: wall_time_s nulled), stderr and the sha256 of the file named by --out.
CLI_PINS = Path(__file__).parent / "data" / "cli_pins.json"


def observe(argv, tmp):
    """Run one command in-process and return what the pins record of it."""
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    stdout = []
    for line in out.getvalue().replace(str(tmp), "{tmp}").splitlines():
        if line.startswith("{"):
            line = json.loads(line)
            line["wall_time_s"] = None
        stdout.append(line)
    artifact = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.is_file():
            artifact = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "exit": code,
        "stdout": stdout,
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
        "artifact": artifact,
    }


@pytest.mark.parametrize(
    "scenario", json.loads(CLI_PINS.read_text()), ids=lambda s: s["name"]
)
def test_golden_cli_pins(scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    for step in scenario["steps"]:
        expected = {key: step[key] for key in ("exit", "stdout", "stderr", "artifact")}
        assert observe(step["argv"], tmp_path) == expected, step["argv"]
