import gc
import json
import os
import random
import subprocess
import sys

import pytest

from shortstring import (LOG, REAL, Automaton, LatticeSpec, cli, generate,
                         oracle_shortest_string, read_text, shortest_string,
                         write_text)
from shortstring.search import rounding

from conftest import E1_SYMBOLS_TEXT, E1_TEXT, small_instance, to_real


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.lat"
    path.write_text(E1_TEXT)
    return str(path)


@pytest.fixture
def e1_numeric_file(tmp_path):
    path = tmp_path / "e1_numeric.lat"
    path.write_text(E1_TEXT.replace("a", "1").replace("b", "2").replace("c", "3"))
    return str(path)


@pytest.fixture
def symbols_file(tmp_path):
    path = tmp_path / "e1.syms"
    path.write_text(E1_SYMBOLS_TEXT)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env() -> dict:
    # the environment of a child interpreter that imports this checkout
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestDecode:
    def test_e1_with_symbols(self, capsys, e1_file, symbols_file):
        code, out, _ = run(capsys, "decode", e1_file, "--symbols", symbols_file)
        assert code == 0
        assert out == "a b\t0.601861\n"

    def test_e1_numeric_labels(self, capsys, e1_numeric_file):
        code, out, _ = run(capsys, "decode", e1_numeric_file)
        assert code == 0
        assert out == "1 2\t0.601861\n"

    def test_full_variant_identical(self, capsys, e1_file, symbols_file):
        _, lazy_out, _ = run(capsys, "decode", e1_file, "--symbols", symbols_file)
        code, full_out, _ = run(capsys, "decode", e1_file, "--symbols",
                                symbols_file, "--full")
        assert code == 0
        assert full_out == lazy_out

    def test_oracle_agreement(self, capsys, e1_file, symbols_file):
        code, out, _ = run(capsys, "decode", e1_file, "--symbols", symbols_file,
                           "--oracle")
        assert code == 0
        assert out == "a b\t0.601861\noracle\ta b\t0.601861\n"

    def test_oracle_mismatch_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "plain.lat"
        path.write_text("0 1 1 0.5\n1 0.0\n")
        monkeypatch.setattr(cli, "oracle_shortest_string",
                            lambda a, path_budget: ((9,), 0.25))
        code, _, err = run(capsys, "decode", str(path), "--oracle")
        assert code == 1
        assert "disagree" in err

    def test_stats_json(self, capsys, e1_numeric_file):
        code, _, err = run(capsys, "decode", e1_numeric_file, "--stats")
        assert code == 0
        stats = json.loads(err.strip())
        assert set(stats) == {"popped", "pushed", "subsets_built",
                              "queue_peak", "arcs_relaxed", "order_violations",
                              "dominated"}
        assert stats["order_violations"] == 0
        assert stats["dominated"] == 0
        assert stats["popped"] == 4

    def test_trace(self, capsys, e1_file, symbols_file):
        code, _, err = run(capsys, "decode", e1_file, "--symbols", symbols_file,
                           "--trace")
        assert code == 0
        lines = [line for line in err.splitlines() if line.startswith("pop\t")]
        assert len(lines) == 4
        assert lines[0].split("\t")[1] == "0"
        assert lines[-1].split("\t")[1] == "goal"
        assert lines[-1].split("\t")[5] == "a b"

    def test_real_semiring(self, capsys, tmp_path):
        # two paths share string "1": mass 0.25 + 0.25 beats "2" at 0.4
        path = tmp_path / "real.lat"
        path.write_text("0 1 1 0.25\n0 2 1 0.25\n0 3 2 0.4\n"
                        "1 1.0\n2 1.0\n3 1.0\n")
        code, out, _ = run(capsys, "decode", str(path), "--semiring", "real")
        assert code == 0
        assert out == "1\t0.500000\n"

    def test_real_oracle_differential(self, capsys, tmp_path):
        for seed in range(20):
            path = tmp_path / f"real{seed}.lat"
            path.write_text(write_text(to_real(small_instance(seed))))
            code, out, _ = run(capsys, "decode", str(path), "--semiring",
                               "real", "--oracle")
            assert code == 0
            decoded, oracle = out.splitlines()
            assert oracle == "oracle\t" + decoded

    def test_real_long_chain_does_not_underflow(self, capsys, tmp_path):
        # 0.1 ** 400 is below the smallest float; in -ln it is 921.03
        path = tmp_path / "chain.lat"
        path.write_text("".join(f"{q} {q + 1} {1 + q % 3} 0.1\n"
                                for q in range(400)) + "400\n")
        code, out, _ = run(capsys, "decode", str(path), "--semiring", "real")
        assert code == 0
        labels, weight = out.split("\t")
        assert labels.split() == [str(1 + q % 3) for q in range(400)]
        assert weight == "0.000000\n"

    def test_real_probability_below_the_float_range_refused(self, capsys,
                                                            tmp_path):
        # float("1e-400") is 0.0, which reads as no arc: the lattice read
        # as empty; in log units (921.034) it decodes
        path = tmp_path / "tiny.lat"
        path.write_text("0 1 1 1e-400\n1\n")
        code, out, err = run(capsys, "decode", str(path), "--semiring", "real")
        assert code == 3
        assert out == ""
        assert err == (f"error: {path}: line 1: weight '1e-400' is below the "
                       f"float range and would read as zero\n")
        path.write_text("0 1 1 921.034\n1\n")
        assert run(capsys, "decode", str(path)) == (0, "1\t921.034000\n", "")

    def test_dump_dfa_weight_written_as_zero_refused(self, capsys, tmp_path):
        # a determinized arc of -ln weight 1380.86, whose probability
        # rounds to 0.0 and would read back as no arc
        path = tmp_path / "small.lat"
        path.write_text("0 1 1 1e-300\n0 2 1 0.5\n1 3 2 1e-300\n"
                        "2 3 3 0.5\n3\n")
        dump = tmp_path / "sub.dfa"
        code, out, err = run(capsys, "decode", str(path), "--semiring", "real",
                             "--full", "--dump-dfa", str(dump))
        assert code == 3
        assert out == ""
        assert err == (f"error: cannot write {dump}: record '1 2 2': weight "
                       f"1380.8579086158675 would be written as 0.0, which "
                       f"reads as no arc\n")
        assert not dump.exists()

    def test_dump_dfa_weight_written_as_inf_refused(self, capsys, tmp_path):
        # string 1 has probability 2e308: its determinized arc would be
        # written as inf, which the reader refuses
        path = tmp_path / "big.lat"
        path.write_text("0 1 1 1e308\n0 2 1 1e308\n1 1\n2 1\n")
        dump = tmp_path / "dfa.txt"
        code, out, err = run(capsys, "decode", str(path), "--semiring", "real",
                             "--dump-dfa", str(dump))
        assert code == 3
        assert out == ""
        assert err == (f"error: cannot write {dump}: record '0 1 1': weight "
                       f"-709.889355822726 would be written as inf, which is "
                       f"not a member of the real semiring\n")
        assert not dump.exists()

    def test_dump_dfa_path_sums_beyond_limit_refused(self, capsys, tmp_path):
        # the lattice's sums reach the limit, and decode; the residual of
        # state 2 is twice the limit, so the explored machine's own sums
        # pass it, and read_text would refuse the dumped file
        limit = "8.988465674311579e+307"
        path = tmp_path / "edge.lat"
        path.write_text(f"0 1 1 -{limit}\n0 2 1 {limit}\n2 4 3 1.0\n"
                        f"2 5 3 1.0\n4\n5\n")
        assert run(capsys, "decode", str(path))[0] == 0
        dump = tmp_path / "dfa.txt"
        code, out, err = run(capsys, "decode", str(path), "--dump-dfa",
                             str(dump))
        assert code == 3
        assert out == ""
        assert err == (f"error: cannot write {dump}: path weights sum to "
                       f"-{limit} .. 1.7976931348623157e+308, beyond "
                       f"±{limit} (half the float range)\n")
        assert not dump.exists()

    @pytest.mark.parametrize("mode", [(), ("--full",)], ids=["lazy", "full"])
    @pytest.mark.parametrize("encoding", ["log", "real"])
    def test_dumped_machine_decodes_to_the_same_answer(self, capsys, tmp_path,
                                                       mode, encoding):
        path, dump = tmp_path / "small.lat", tmp_path / "dfa.txt"
        for seed in range(20):
            lattice = small_instance(seed)
            path.write_text(write_text(to_real(lattice) if encoding == "real"
                                       else lattice))
            code, out, err = run(capsys, "decode", str(path), "--semiring",
                                 encoding, "--dump-dfa", str(dump), *mode)
            assert code == 0, err
            code, again, err = run(capsys, "decode", str(dump), "--semiring",
                                   encoding)
            assert code == 0, err
            if encoding == "log":
                assert again == out
            else:   # real weights may move by an ulp through the file
                (labels, weight), (labels2, weight2) = (
                    line.split("\t") for line in (out, again))
                assert labels2 == labels
                assert float(weight2) == pytest.approx(float(weight),
                                                       abs=1e-6)

    def test_long_chain_pop_order(self, capsys, tmp_path):
        # the g + h sums drift past any absolute slack on 20,000 arcs
        path = tmp_path / "chain.lat"
        path.write_text("".join(f"{q} {q + 1} {1 + q % 3} 0.1\n"
                                for q in range(20_000)) + "20000\n")
        code, out, err = run(capsys, "decode", str(path), "--stats")
        assert code == 0
        assert len(out.split("\t")[0].split()) == 20_000
        assert json.loads(err)["order_violations"] == 0

    def test_negative_infinity_weight(self, capsys, tmp_path):
        path = tmp_path / "neginf.lat"
        path.write_text("0 1 1 -inf\n1\n")
        code, _, err = run(capsys, "decode", str(path))
        assert code == 3
        assert "line 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "decode", str(tmp_path / "nope.lat"))
        assert code == 3
        assert "cannot read" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text("0 1 5 0.5\nbogus line here is bad\n")
        code, _, err = run(capsys, "decode", str(path))
        assert code == 3
        assert "line 2" in err

    def test_cyclic_file(self, capsys, tmp_path):
        path = tmp_path / "cyclic.lat"
        path.write_text("0 1 5 0.5\n1 0 5 0.5\n1 0.0\n")
        code, _, err = run(capsys, "decode", str(path))
        assert code == 3
        assert "cycle" in err

    def test_empty_language(self, capsys, tmp_path):
        path = tmp_path / "empty.lat"
        path.write_text("0 1 5 0.5\n")
        code, _, err = run(capsys, "decode", str(path))
        assert code == 2
        assert "no string" in err

    def test_budget(self, capsys, e1_numeric_file):
        code, _, err = run(capsys, "decode", e1_numeric_file, "--budget", "1")
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("full", [False, True])
    def test_stats_json_on_budget_exit(self, capsys, e1_numeric_file, full):
        code, _, err = run(capsys, "decode", e1_numeric_file, "--stats",
                           "--budget", "2", *(["--full"] if full else []))
        assert code == 4
        lines = err.strip().splitlines()
        assert "budget" in lines[0]
        stats = json.loads(lines[-1])
        assert stats["subsets_built"] == 2
        assert stats["popped"] == (0 if full else 1)

    def test_stats_json_on_empty_exit(self, capsys, tmp_path):
        path = tmp_path / "empty.lat"
        path.write_text("0 1 5 0.5\n")
        code, _, err = run(capsys, "decode", str(path), "--stats")
        assert code == 2
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["subsets_built"] == 1
        assert stats["popped"] == 0

    def test_nonpositive_budget_rejected(self, capsys, e1_numeric_file):
        code, _, err = run(capsys, "decode", e1_numeric_file, "--budget", "0")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "1e-320"])
    def test_bad_delta_det_rejected(self, capsys, e1_numeric_file, tolerance):
        # subsets are keyed exactly and the merge tolerance option is gone,
        # so any value of it is a usage error
        code, _, err = run(capsys, "decode", e1_numeric_file,
                           f"--delta-det={tolerance}")
        assert code == 3
        assert "delta-det" in err

    @pytest.mark.parametrize("argv", [
        ("decode", "{file}", "--no-such-flag"),
        ("decode", "{file}", "--budget", "abc"),
        ("decode",),
        ("frobnicate",),
        ("gen", "--depth", "x", "--width", "1", "--vocab", "1"),
        # the oracle tolerance is a constant now, not an option
        ("decode", "{file}", "--oracle", "--tolerance", "1e-3")],
        ids=["unknown-flag", "budget-abc", "no-input", "unknown-command",
             "gen-depth-x", "tolerance"])
    def test_usage_error_exits_invalid(self, capsys, e1_numeric_file, argv):
        code, out, err = run(capsys, *(arg.format(file=e1_numeric_file)
                                       for arg in argv))
        assert code == 3
        assert out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [("-h",), ("decode", "--help")],
                             ids=["top", "decode"])
    def test_help_exits_ok(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage:")

    def test_usage_error_process_exit_status(self, e1_numeric_file):
        done = subprocess.run(
            [sys.executable, "-m", "shortstring.cli", "decode",
             e1_numeric_file, "--delta-det", "1e-320"],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 3
        assert "unrecognized arguments: --delta-det" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("text, sums", [
        # the only string weighs 2e308, which overflows to +inf, "no path"
        ("0 1 1 1e308\n1 2 1 1e308\n2\n", "0.0 .. inf"),
        # string 2 weighs 5, but string 1 1 sums to -inf
        ("0 1 1 -1e308\n1 2 1 -1e308\n0 2 2 5\n2\n", "-inf .. 5.0"),
        # every sum is finite, but residuals are differences of two sums
        ("0 1 1 -1e308\n0 2 1 1e308\n2 3 3 1\n2 4 3 1\n3\n4\n",
         "-1e+308 .. 1e+308")],
        ids=["positive", "negative", "residual"])
    @pytest.mark.parametrize("mode", [(), ("--full",), ("--oracle",)],
                             ids=["lazy", "full", "oracle"])
    def test_overflowing_path_sums_rejected(self, capsys, tmp_path, text,
                                            sums, mode):
        path = tmp_path / "huge.lat"
        path.write_text(text)
        code, out, err = run(capsys, "decode", str(path), *mode)
        assert code == 3
        assert out == ""
        assert f"path weights sum to {sums}, beyond" in err

    def test_negative_symbol_id(self, capsys, tmp_path, e1_file):
        # a label of -1 would reach the automaton; the table is refused
        path = tmp_path / "neg.syms"
        path.write_text("<eps> 0\na 1\nb -1\nc 3\n")
        code, out, err = run(capsys, "decode", e1_file, "--symbols", str(path))
        assert code == 3
        assert out == ""
        assert err == ("error: bad symbol table: line 3: negative symbol "
                       "id '-1'\n")

    def test_unknown_token(self, capsys, tmp_path, symbols_file):
        path = tmp_path / "tok.lat"
        path.write_text("0 1 zzz 0.5\n1 0.0\n")
        code, _, err = run(capsys, "decode", str(path), "--symbols", symbols_file)
        assert code == 3
        assert "zzz" in err

    def test_print_distances(self, capsys, e1_numeric_file):
        code, _, err = run(capsys, "decode", e1_numeric_file, "--print-distances")
        assert code == 0
        lines = [line for line in err.splitlines() if line.startswith("distance\t")]
        assert len(lines) == 4
        # forward, backward (merged) mass, and the search's string bound,
        # which is the root's h in --trace
        assert lines[0].split("\t") == ["distance", "0", "0", "0.0467134447",
                                        "0.601861131"]
        assert lines[3].split("\t")[2] == "0.0467134447"  # alpha at the final
        assert [line.split("\t")[4] for line in lines[1:]] == ["0.7", "0.9", "0"]

    def test_print_distances_renders_infinities(self, capsys, tmp_path):
        path = tmp_path / "dead.lat"
        path.write_text("0 1 5 0.5\n")
        code, _, err = run(capsys, "decode", str(path), "--print-distances")
        assert code == 2  # still an empty language
        lines = [line for line in err.splitlines() if line.startswith("distance\t")]
        assert lines[0].split("\t")[3:] == ["+inf", "+inf"]

    def test_dump_dfa(self, capsys, tmp_path, e1_file, symbols_file):
        dump = tmp_path / "sub.dfa"
        code, _, _ = run(capsys, "decode", e1_file, "--symbols", symbols_file,
                         "--dump-dfa", str(dump))
        assert code == 0
        from shortstring import LOG, SymbolTable, read_text
        table = SymbolTable.from_text(E1_SYMBOLS_TEXT)
        sub = read_text(dump.read_text(), LOG, table)
        assert sub.num_states == 3
        assert sub.num_arcs() == 3

    def test_dump_dfa_unwritable(self, capsys, tmp_path, e1_numeric_file):
        dump = tmp_path / "missing" / "sub.dfa"
        code, out, err = run(capsys, "decode", e1_numeric_file, "--dump-dfa",
                             str(dump))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: cannot write {dump}: ")

    def test_oracle_budget_after_decode(self, capsys, tmp_path):
        # three subsets fit a budget of 3; the oracle's four paths do not
        path = tmp_path / "four_paths.lat"
        path.write_text("0 1 1 0.5\n0 1 2 0.7\n1 2 1 0.5\n1 2 2 0.7\n2 0.0\n")
        code, out, err = run(capsys, "decode", str(path), "--oracle",
                             "--budget", "3")
        assert code == 4
        assert out == "1 1\t1.000000\n"
        assert err == "error: path budget 3 exceeded\n"

    def test_oracle_counts_paths_before_walking(self, capsys, tmp_path):
        # 60 layers of two parallel arcs: 2^60 paths, refused unwalked
        path = tmp_path / "parallel.lat"
        path.write_text("".join(f"{q} {q + 1} {label} 0.5\n"
                                for q in range(60) for label in (1, 2))
                        + "60 0.0\n")
        code, out, err = run(capsys, "decode", str(path), "--oracle")
        assert code == 4
        assert out == " ".join(["1"] * 60) + "\t30.000000\n"
        assert err == "error: path budget 1000000 exceeded\n"

    @pytest.mark.parametrize("mode", [
        (), ("--full",), ("--oracle",), ("--print-distances",), ("--trace",),
        ("--dump-dfa", "{dump}")],
        ids=["lazy", "full", "oracle", "distances", "trace", "dump"])
    def test_real_probability_beyond_float_range(self, capsys, tmp_path, mode):
        # string 1 has probability 3e308: it exited 1 with an
        # OverflowError in the conversion back to a probability
        path = tmp_path / "big.lat"
        path.write_text("0 1 1 1e308\n1 3\n")
        mode = [arg.format(dump=tmp_path / "sub.dfa") for arg in mode]
        code, out, err = run(capsys, "decode", str(path), "--semiring",
                             "real", *mode)
        assert code == 0
        assert out.splitlines()[0] == "1\tinf"
        assert "Traceback" not in err

    def test_real_oracle_compares_in_log_units(self, capsys, tmp_path):
        # the two weights of string 1 differ by 1.1e-13 relative, which
        # is about 8e293 in probability: an absolute comparison of the
        # probabilities reported a mismatch
        path = tmp_path / "near.lat"
        path.write_text("0 2 1 0.07289232370518069\n0 3 1 0.5116559375768347\n"
                        "0 3 3 0.4154517387179847\n1 1.0\n3 1e-300\n2 1e308\n")
        code, out, err = run(capsys, "decode", str(path), "--semiring", "real",
                             "--oracle")
        assert code == 0
        decoded, oracle = out.splitlines()
        assert decoded.startswith("1\t") and oracle.startswith("oracle\t1\t")
        assert err == ""

    def test_log_oracle_allows_an_ulp_on_large_weights(self, capsys, tmp_path):
        # both sides give string "1 1"; the weights, near 2e12, differ in
        # their last bit, which is 2.4e-4 and over the absolute tolerance
        path = tmp_path / "large.lat"
        path.write_text("0 1 1 1000000000000.2816\n0 2 1 1000000000000.7653\n"
                        "0 2 2 1000000000001.4167\n1 2 2 1000000000000.799\n"
                        "1 2 2 1000000000001.8223\n2 3 1 1000000000000.0763\n"
                        "2 3 1 1000000000002.7042\n2 3 2 1000000000002.0594\n"
                        "3 0.0\n")
        code, out, err = run(capsys, "decode", str(path), "--oracle")
        assert code == 0, err
        assert out == ("1 1\t2000000000000.771973\n"
                       "oracle\t1 1\t2000000000000.771729\n")

    def test_log_oracle_on_large_weight_lattices(self, capsys, tmp_path):
        # weights 1e12 + U(0, 3) on 3-8 states: an absolute tolerance of
        # 1e-6 is below an ulp of the sums, and reported false mismatches;
        # consecutive states get at least one arc, so the last is reached
        path = tmp_path / "large.lat"
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(3, 8)
            lines = [f"{s} {t} {rng.randint(1, 2)} {1e12 + rng.uniform(0, 3)!r}"
                     for s in range(n - 1) for t in range(s + 1, n)
                     for _ in range(rng.randint(1 if t == s + 1 else 0, 2))]
            path.write_text("\n".join(lines) + f"\n{n - 1} 0.0\n")
            code, _, err = run(capsys, "decode", str(path), "--oracle")
            assert code == 0, (seed, err)

    def test_oracle_agrees_within_the_margin_at_the_decoded_weight(
            self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "plain.lat"
        path.write_text("0 1 1 0.5\n1 0.0\n")
        margin = rounding(read_text(path.read_text(), LOG))(0.5)
        assert margin == 1e-9
        for gap, expected in ((0.5 * margin, 0), (2 * margin, 1)):
            monkeypatch.setattr(cli, "oracle_shortest_string",
                                lambda a, path_budget: ((1,), 0.5 + gap))
            code, _, _ = run(capsys, "decode", str(path), "--oracle")
            assert code == expected

    def test_oracle_margin_headroom(self):
        # seeded lattices as generated, shifted, negated, with cancelling
        # ±2^40 offsets and in real: where the labels agree, the search and
        # the oracle weights stay far inside the margin --oracle allows
        def variants(a):
            arcs, finals = list(a.all_arcs()), dict(a.finals)

            def build(encoding, arc_weight, start=0.0, end=0.0):
                return Automaton(
                    encoding, a.num_states, a.initial,
                    [(s, label, arc_weight(w) + (start if s == a.initial
                                                 else 0.0), t)
                     for s, label, w, t in arcs],
                    {q: w + end for q, w in finals.items()})
            return (a, build(LOG, lambda w: w + 1e6),
                    build(LOG, lambda w: w + 1e14),
                    build(LOG, lambda w: -0.5 * w),
                    build(LOG, lambda w: w, -2.0 ** 40, 2.0 ** 40),
                    build(REAL, lambda w: 60 * w))

        rng = random.Random(2022)
        decodes = agreeing = 0
        for _ in range(400):
            width, depth = rng.randint(2, 6), rng.randint(3, 9)
            while width ** depth > 2000:    # paths the oracle walks
                depth -= 1
            spec = LatticeSpec(depth=depth, width=width,
                               vocab=rng.randint(1, 4),
                               skew=rng.choice((0.3, 1.0, 3.0)),
                               merge_prob=rng.choice((0.0, 0.2, 0.5, 0.9)),
                               seed=rng.randrange(10 ** 6))
            for a in variants(generate(spec)):
                decodes += 1
                result = shortest_string(a)
                labels, weight = oracle_shortest_string(a)
                if labels != result.labels:     # a near-tie
                    continue
                agreeing += 1
                searched = a.encoding.to_log(result.weight)
                gap = (0.0 if weight == result.weight
                       else abs(a.encoding.to_log(weight) - searched))
                assert gap <= 1e-3 * rounding(a)(searched), (spec, a.encoding)
        assert agreeing >= 0.98 * decodes

    def test_oracle_allows_the_rounding_of_cancelling_weights(
            self, capsys, tmp_path):
        # tests/test_search.py's cancelling lattice: arcs of -(2^40 + k)
        # and 2^40 + k round the search's sums at 2^-12, the oracle's not
        big = 2.0 ** 40
        path = tmp_path / "cancel.lat"
        path.write_text(f"0 1 2 {-(big + 1000)!r}\n0 2 2 {400.3 / 4096!r}\n"
                        f"0 1 1 {-(big - 500)!r}\n0 2 1 {400.3 / 4096!r}\n"
                        f"1 3 3 {big + 1005!r}\n2 3 4 {3 / 8192!r}\n3 0.0\n")
        code, out, err = run(capsys, "decode", str(path), "--oracle")
        assert code == 0, err
        assert out == "1 4\t0.098145\noracle\t1 4\t0.098096\n"

    def test_lattice_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.lat"
        path.write_bytes(b"\xef\xbb\xbf" + E1_TEXT.replace("a", "1").replace(
            "b", "2").replace("c", "3").encode())
        code, out, err = run(capsys, "decode", str(path))
        assert code == 0, err
        assert out == "1 2\t0.601861\n"

    def test_symbols_with_byte_order_mark(self, capsys, tmp_path, e1_file):
        # the mark would make the first token '\ufeffa', and 'a' unknown
        path = tmp_path / "bom.syms"
        path.write_bytes(b"\xef\xbb\xbfa 1\nb 2\nc 3\n")
        code, out, err = run(capsys, "decode", e1_file, "--symbols", str(path))
        assert code == 0, err
        assert out == "a b\t0.601861\n"


class TestGen:
    def test_deterministic(self, capsys):
        args = ("gen", "--depth", "4", "--width", "3", "--vocab", "2",
                "--merge-prob", "0.5", "--seed", "7")
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second
        assert first.splitlines()[0].startswith("0 ")

    def test_gen_decode_pipeline(self, capsys, tmp_path):
        code, text, _ = run(capsys, "gen", "--depth", "3", "--width", "2",
                            "--vocab", "2", "--seed", "5")
        assert code == 0
        path = tmp_path / "gen.lat"
        path.write_text(text)
        code, out, _ = run(capsys, "decode", str(path), "--oracle")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "gen", "--depth", "0", "--width", "1",
                           "--vocab", "1")
        assert code == 3
        assert "depth" in err


@pytest.mark.parametrize("argv", [
    ("decode", "{lattice}", "--stats"),
    ("gen", "--depth", "3", "--width", "2", "--vocab", "2"),
    ("-h",), ("decode", "-h")],
    ids=["decode", "gen", "help", "decode-help"])
def test_closed_stdout_exits_3_without_traceback(tmp_path, argv):
    # the pipe's read end is closed before the child starts, so the
    # child's first write to stdout, or its flush, fails whenever it comes
    lattice = tmp_path / "f.lat"
    lattice.write_text("0 1 1 0.5\n1 0.0\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "shortstring.cli",
             *(arg.format(lattice=lattice) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(),
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", [
    ("gen", "--depth", "20"), ("bench", "--depths", "20")], ids=["gen", "bench"])
@pytest.mark.parametrize("skew, message", [
    # 300 and 1e6 take some or every mass of a position below the
    # smallest float, which crashed in log() and in the normalization
    ("300", "skew 300 underflows an arc mass to zero"),
    ("1e6", "skew 1e+06 underflows an arc mass to zero"),
    ("inf", "skew must be positive and finite"),
    # nan used to write nan weights
    ("nan", "skew must be positive and finite")])
def test_bad_skew_rejected(capsys, command, skew, message):
    code, out, err = run(capsys, *command, "--width", "4", "--vocab", "2",
                         "--skew", skew)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def _scrub_wall_time(csv):
    # bench rows with the wall_time_us column blanked
    rows = []
    for line in csv.splitlines():
        fields = line.split(",")
        if len(fields) > 7:
            fields[7] = "?"
        rows.append(",".join(fields))
    return rows


class TestBench:
    def test_row_count_and_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--depths", "3,4", "--width", "2",
                           "--vocab", "2", "--seeds", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6 + 1
        assert lines[0].startswith("seed,")
        assert lines[-1].startswith("#slope=")

    def test_budget_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--depths", "6", "--width", "4",
                           "--vocab", "2", "--merge-prob", "0.5",
                           "--budget", "3")
        assert code == 0
        assert any(line.endswith(",budget") for line in out.splitlines())

    def test_lazy_decode_within_budget_is_ok(self, capsys):
        # the lazy search settles at most 827 subsets on each; only the
        # exhaustive count passes the budget, and it is left blank
        code, out, _ = run(capsys, "bench", "--depths", "25", "--width", "5",
                           "--vocab", "3", "--merge-prob", "0.2",
                           "--seeds", "3", "--budget", "5000")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        assert len(rows) == 3
        for row in rows:
            assert row[-1] == "ok"
            assert row[5] == ""
            assert 0 < int(row[6]) <= 827

    def test_deterministic_modulo_wall_time(self, capsys):
        args = ("bench", "--depths", "3,5", "--width", "2", "--vocab", "2",
                "--seeds", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert _scrub_wall_time(first) == _scrub_wall_time(second)

    def test_nonpositive_budget_rejected(self, capsys):
        code, out, err = run(capsys, "bench", "--depths", "3", "--width", "2",
                             "--vocab", "2", "--budget", "0")
        assert code == 3
        assert out == ""
        assert err == "error: state budget must be positive\n"

    def test_bad_depths(self, capsys):
        code, _, err = run(capsys, "bench", "--depths", "x", "--width", "2",
                           "--vocab", "2")
        assert code == 3
        assert "depth" in err

    @pytest.mark.parametrize("sweep", [("--depths", "3", "--seeds", "0"),
                                       ("--depths", ",")],
                             ids=["no-seed", "no-depth"])
    def test_empty_sweep(self, capsys, sweep):
        code, out, err = run(capsys, "bench", *sweep, "--width", "2",
                             "--vocab", "2")
        assert code == 3
        assert out == ""
        assert err == "error: need at least one depth and one seed\n"


class TestRepeatedCalls:
    # main() reuses one parser for every call in the process, so no call
    # may see an earlier one's arguments, whatever the order

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_same_results_in_either_order(self, capsys, e1_file,
                                          e1_numeric_file, symbols_file):
        e1 = e1_numeric_file
        argvs = [
            ("decode", e1), ("decode", e1, "--stats"),
            ("decode", e1, "--budget", "1"),
            ("decode", e1, "--bogus"), ("decode", e1, "--oracle"),
            ("decode", "-h"), ("decode", e1, "--full"),
            ("decode", e1_file, "--symbols", symbols_file), ("decode", e1),
            ("gen", "--depth", "3", "--width", "2", "--vocab", "2",
             "--seed", "4"),
            ("bench", "--depths", "3,4", "--width", "2", "--vocab", "2",
             "--seeds", "2")]

        def result(argv):
            code, out, err = run(capsys, *argv)
            return code, (_scrub_wall_time(out) if argv[0] == "bench"
                          else out), err

        forward = [result(argv) for argv in argvs]
        backward = [result(argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]
        assert [code for code, _, _ in forward] == [0, 0, 4, 3, 0, 0, 0, 0,
                                                    0, 0, 0]
        assert forward[-4][1] == "a b\t0.601861\n"
        assert forward[-3][1] == "1 2\t0.601861\n"


def _tied_chains_text(n) -> str:
    # two chains of n + 1 arcs, all of one weight, spelling (1, 2, 2, ...)
    # and (2, 1, 1, ...): the heap compares their paths at every step
    lines = []
    for offset, first, rest in ((0, 1, 2), (n + 1, 2, 1)):
        prev = 0
        for i in range(n + 1):
            lines.append(f"{prev} {offset + i + 1} "
                         f"{first if i == 0 else rest} 0.25\n")
            prev = offset + i + 1
        lines.append(f"{prev} 0.5\n")
    return "".join(lines)


def test_decode_leaves_no_cyclic_garbage(capsys, tmp_path, e1_numeric_file):
    # a decode frees what it allocates by reference counting alone, so
    # the cyclic collector finds nothing after it on any exit path, also
    # where many strings tie and the heap compares their paths. Not
    # covered: usage errors and -h (argparse's own exit leaves cycles)
    def lattice_file(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    e1 = e1_numeric_file
    argvs = [
        ("decode", e1), ("decode", e1, "--stats"), ("decode", e1, "--full"),
        ("decode", e1, "--oracle"), ("decode", e1, "--trace"),
        ("decode", e1, "--print-distances"),
        ("decode", e1, "--dump-dfa", str(tmp_path / "dfa.txt")),
        ("decode", lattice_file("empty.lat", "0 1 5 0.5\n"), "--stats"),
        ("decode", lattice_file("bad.lat", "0 1 5 0.5\nbogus line\n")),
        ("decode", lattice_file("cyclic.lat",
                                "0 1 5 0.5\n1 0 5 0.5\n1 0.0\n")),
        ("decode", e1, "--budget", "1", "--stats")]
    for seed in range(2):
        wide = generate(LatticeSpec(depth=6, width=10, vocab=4,
                                    merge_prob=0.3, seed=seed))
        ambig = generate(LatticeSpec(depth=12, width=5, vocab=3,
                                     merge_prob=0.2, seed=seed))
        argvs += [("decode", lattice_file(f"wide{seed}.lat",
                                          write_text(to_real(wide))),
                   "--semiring", "real", "--stats"),
                  ("decode", lattice_file(f"ambig{seed}.lat",
                                          write_text(ambig)), "--stats")]
    # the deep workload's seed-0 shape with every weight 0.0 (one), so
    # strings of one length tie
    deep = generate(LatticeSpec(depth=300, width=4, vocab=4, skew=3.0,
                                seed=0))
    flat = Automaton(LOG, deep.num_states, deep.initial,
                     [(source, label, 0.0, target)
                      for source, label, _, target in deep.all_arcs()],
                     dict.fromkeys(deep.finals, 0.0))
    argvs += [("decode", lattice_file("flat.lat", write_text(flat))),
              ("decode", lattice_file("chains.lat", _tied_chains_text(2000)))]
    run(capsys, *argvs[0])
    codes = []
    gc.disable()    # or a collection during a call would hide its cycles
    try:
        for argv in argvs:
            gc.collect()
            codes.append(cli.main(list(argv)))
            assert gc.collect() == 0, argv
            capsys.readouterr()
    finally:
        gc.enable()
    assert codes == [0] * 7 + [2, 3, 3, 4] + [0] * 6


class TestCollectorState:
    # decode pauses the cyclic collector while it runs and hands it back
    # as it found it, on every exit; the other commands leave it alone

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        # the collector switched to the parameter's state for the test,
        # and back to the runner's after it
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture
    def watched(self, monkeypatch):
        # cli.shortest_string, recording the collector's state on each call
        seen = []

        def search(*args, **kwargs):
            seen.append(gc.isenabled())
            return shortest_string(*args, **kwargs)
        monkeypatch.setattr(cli, "shortest_string", search)
        return seen

    @pytest.mark.parametrize("text, flags, expected", [
        ("0 1 5 0.5\n1 0.0\n", (), 0),
        ("0 1 5 0.5\n", (), 2),
        ("0 1 5 0.5\nbogus line\n", (), 3),
        ("0 1 5 0.5\n0 2 6 0.5\n1 0.0\n2 0.0\n", ("--budget", "1"), 4)],
        ids=["exit0", "exit2", "exit3", "exit4"])
    def test_restored_on_every_exit(self, capsys, tmp_path, gc_state, watched,
                                    text, flags, expected):
        path = tmp_path / "f.lat"
        path.write_text(text)
        assert run(capsys, "decode", str(path), *flags)[0] == expected
        assert gc.isenabled() == gc_state
        assert watched == ([] if expected == 3 else [False])

    def test_restored_on_closed_stdout(self, tmp_path, monkeypatch, gc_state,
                                      watched):
        path = tmp_path / "f.lat"
        path.write_text("0 1 5 0.5\n1 0.0\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert cli.main(["decode", str(path)]) == 3
        assert gc.isenabled() == gc_state
        assert watched == [False]

    def test_restored_when_the_search_raises(self, tmp_path, monkeypatch,
                                             gc_state):
        def search(*args, **kwargs):
            raise RuntimeError("search failed")
        monkeypatch.setattr(cli, "shortest_string", search)
        path = tmp_path / "f.lat"
        path.write_text("0 1 5 0.5\n1 0.0\n")
        with pytest.raises(RuntimeError, match="search failed"):
            cli.main(["decode", str(path)])
        assert gc.isenabled() == gc_state

    @pytest.mark.parametrize("argv, patched", [
        (("gen", "--depth", "3", "--width", "2", "--vocab", "2"), "generate"),
        (("bench", "--depths", "3", "--width", "2", "--vocab", "2"),
         "bench_run")], ids=["gen", "bench"])
    def test_other_commands_leave_it_alone(self, capsys, monkeypatch, gc_state,
                                           argv, patched):
        seen = []
        inner = getattr(cli, patched)

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return inner(*args, **kwargs)
        monkeypatch.setattr(cli, patched, spy)
        assert run(capsys, *argv)[0] == 0
        assert seen == [gc_state]
        assert gc.isenabled() == gc_state


# field values the fuzz test writes in place of a valid one; state ids
# stay small, as a huge id makes read_text allocate that many states
MUTATIONS = ("-1", "x", "nan", "inf", "-inf", "-0.0", "1e308", "-1e308",
             "1e-320", "+3")
FLAGS = ((), ("--full",), ("--oracle",), ("--print-distances",), ("--trace",))


def _mutated_lattice(rng) -> tuple:
    lattice = generate(LatticeSpec(
        depth=rng.randint(1, 4), width=rng.randint(1, 3),
        vocab=rng.randint(1, 3), merge_prob=rng.random(),
        seed=rng.randrange(1000)))
    encoding = rng.choice(("log", "real"))
    text = write_text(to_real(lattice) if encoding == "real" else lattice)
    lines = [line.split() for line in text.splitlines()]
    for fields in lines:
        if rng.random() < 0.1:
            # mostly the weight, the last field of a weighted record
            i = (len(fields) - 1 if rng.random() < 0.7
                 else rng.randrange(len(fields)))
            fields[i] = (str(rng.randint(0, lattice.num_states + 1))
                         if rng.random() < 0.3 else rng.choice(MUTATIONS))
    if len(lines) > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    for _ in range(rng.choice((0, 0, 1, 2))):
        lines.insert(rng.randrange(len(lines) + 1), list(rng.choice(lines)))
    return "".join(" ".join(fields) + "\n" for fields in lines), encoding


def test_decode_fuzz(capsys, tmp_path):
    # mutated lattices in both encodings, through every decode mode: the
    # command ends in a documented exit code, never a traceback, and
    # --oracle agrees whenever the decode succeeds
    rng = random.Random(8)
    path = tmp_path / "fuzz.lat"
    seen = set()
    for _ in range(1200):
        text, encoding = _mutated_lattice(rng)
        path.write_text(text)
        # a small budget, alone or shared by the decode and the oracle
        roll = rng.random()
        budget = ("--budget", str(rng.randint(1, 5)))
        flags = (budget if roll < 0.15 else ("--oracle", *budget)
                 if roll < 0.25 else rng.choice(FLAGS))
        code, out, _ = run(capsys, "decode", str(path), "--semiring", encoding,
                           *flags)
        assert code in (0, 2, 3, 4), (text, encoding, flags, code)
        if code == 0 and "--oracle" in flags:
            decoded, oracle = out.splitlines()
            assert oracle.split("\t")[1] == decoded.split("\t")[0], text
        seen.add(code)
    assert seen == {0, 2, 3, 4}
