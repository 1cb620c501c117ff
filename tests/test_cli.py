import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import segscan
from segscan import cli
from segscan.cli import main
from segscan.profiles import read_segments
from segscan.simulation import SimSpec, simulate, write_profile_plain, write_truth_manifest

DOCUMENTED_FLAGS = ["--wmin", "--wmax", "--rho", "--ps", "--alpha", "--pb",
                    "--k-refine", "--background", "--sigma", "--sides",
                    "--format", "--output", "--seed", "--jobs"]


def _write_profile(path, seed=0, length=1200, planted=()):
    profile, _ = simulate(SimSpec(length=length, planted=planted, seed=seed))
    write_profile_plain(profile, path)
    return path


class TestHelp:
    def test_documented_flags_round_trip_through_help(self, capsys):
        help_text = ""
        for sub in ("segment", "simulate", "evaluate", "bench"):
            assert main([sub, "--help"]) == 0
            help_text += capsys.readouterr().out
        for flag in DOCUMENTED_FLAGS:
            assert flag in help_text

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["segment", "x.txt", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()


class TestSegment:
    def test_zero_profile_header_only(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0.0\n" * 50)
        out = tmp_path / "out.tsv"
        code = main(["segment", str(path), "--sigma", "1.0", "--output", str(out)])
        assert code == 0
        assert out.read_bytes() == b"#label\tstart\tend\tmean\tz\tp_value\tsignificant\n"

    def test_missing_file_is_data_error(self, capsys):
        assert main(["segment", "definitely-not-here.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_degenerate_sigma_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("1.0\n" * 30)
        assert main(["segment", str(path)]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_stdout_output(self, tmp_path, capsys):
        path = _write_profile(tmp_path / "p.txt", seed=1)
        assert main(["segment", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#label")

    def test_segments_planted_profile(self, tmp_path):
        from segscan import PlantedSegment
        path = _write_profile(tmp_path / "p.txt", seed=2, length=3000,
                              planted=(PlantedSegment(1000, 1150, 2.0),))
        out = tmp_path / "segs.tsv"
        assert main(["segment", str(path), "--output", str(out)]) == 0
        records = [r for r in read_segments(out.read_bytes()) if r.significant]
        assert any(r.start < 1150 and 1000 < r.end for r in records)

    def test_multiple_inputs_require_output_dir(self, tmp_path, capsys):
        a = _write_profile(tmp_path / "a.txt", seed=3)
        b = _write_profile(tmp_path / "b.txt", seed=4)
        assert main(["segment", str(a), str(b)]) == 1
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert main(["segment", str(a), str(b), "--output", str(out_dir)]) == 0
        assert (out_dir / "a.segments.tsv").exists()
        assert (out_dir / "b.segments.tsv").exists()

    def test_shared_stem_rejected_before_any_work(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _write_profile(tmp_path / "a" / "x.txt", seed=3)
        b = _write_profile(tmp_path / "b" / "x.txt", seed=4)
        out_dir = tmp_path / "out"
        assert main(["segment", str(a), str(b), "--output", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(a) in err and str(b) in err
        assert not out_dir.exists()

    def test_data_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n2.0\nNA\n")
        assert main(["segment", str(bad)]) == 2
        assert f"{bad}: line 3: malformed numeric field 'NA'" in capsys.readouterr().err

    def test_non_utf8_input_is_data_error_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"# temp\xe9rature\n1.0\n2.0\n")
        assert main(["segment", str(bad)]) == 2
        assert f"segscan: error: {bad}: input is not UTF-8 text" in capsys.readouterr().err

    def test_position_beyond_int64_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "big.tsv"
        bad.write_text("c\t1\t0.25\nc\t99999999999999999999\t0.5\n")
        assert main(["segment", str(bad), "--format", "tsv"]) == 2
        assert f"{bad}: line 2: position '99999999999999999999'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, rows", [
        ("tsv", "c\t1\t0.25\nc\t5\t0.5\nc\t5\t0.75\n"),
        ("bedgraph", "c\t1\t5\t0.25\nc\t5\t9\t0.5\nc\t3\t5\t0.75\n"),
    ], ids=["tsv-repeated", "bedgraph-decreasing"])
    def test_non_increasing_position_names_file_and_line(self, tmp_path, capsys, fmt, rows):
        bad = tmp_path / f"order.{fmt}"
        bad.write_text(rows)
        assert main(["segment", str(bad), "--format", fmt]) == 2
        assert f"{bad}: line 3: positions must be strictly increasing" in capsys.readouterr().err

    def test_overlapping_bedgraph_rows_name_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "overlap.bedgraph"
        bad.write_text("c\t0\t100\t0.25\nc\t50\t150\t0.5\nc\t150\t200\t0.75\n")
        assert main(["segment", str(bad), "--format", "bedgraph"]) == 2
        assert capsys.readouterr().err == (f"segscan: error: {bad}: line 2: start 50 is "
                                           "before the previous row's end 100\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_input_keeps_good_tables(self, tmp_path, capsys, jobs):
        good = _write_profile(tmp_path / "good.txt", seed=6)
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n2.0\nNA\n")
        missing = tmp_path / "missing.txt"
        out_dir = tmp_path / "out"
        assert main(["segment", str(good), str(bad), str(missing), "--output", str(out_dir),
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 3: malformed numeric field 'NA'" in err
        assert f"{missing}: " in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["good.segments.tsv"]
        assert main(["segment", str(good), "--output", str(tmp_path / "alone.tsv")]) == 0
        assert (out_dir / "good.segments.tsv").read_bytes() == \
            (tmp_path / "alone.tsv").read_bytes()

    def test_overflowing_sums_are_data_error(self, tmp_path):
        # a process of its own, so that its stderr shows any warning numpy
        # would print under the default filters
        good = _write_profile(tmp_path / "good.txt", seed=6)
        values = np.random.default_rng(6).normal(size=1000)
        values[::100] = 1.7e308
        huge = tmp_path / "huge.txt"
        huge.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        out_dir = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(segscan.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-m", "segscan.cli", "segment", str(good),
                              str(huge), "--output", str(out_dir)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert out.stderr == (f"segscan: error: {huge}: prefix sums overflow double "
                              "precision; rescale the profile\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["good.segments.tsv"]

    def test_output_in_missing_directory_names_the_output(self, tmp_path, capsys):
        good = _write_profile(tmp_path / "good.txt", seed=6)
        out = tmp_path / "nonexistent" / "x.tsv"
        assert main(["segment", str(good), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"segscan: error: {out}: No such file or directory" in err
        assert ".x.tsv." not in err

    def test_output_naming_a_directory_names_the_output(self, tmp_path, capsys):
        good = _write_profile(tmp_path / "good.txt", seed=6)
        out = tmp_path / "d"
        out.mkdir()
        assert main(["segment", str(good), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"segscan: error: {out}: Is a directory" in err
        assert ".d." not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "good.txt"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_write_keeps_other_tables(self, tmp_path, capsys, jobs):
        inputs = [_write_profile(tmp_path / f"q{i}.txt", seed=i) for i in (1, 2, 3)]
        out_dir = tmp_path / "out"
        blocked = out_dir / "q1.segments.tsv"
        blocked.mkdir(parents=True)
        assert main(["segment", *map(str, inputs), "--output", str(out_dir),
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert f"segscan: error: {blocked}: Is a directory" in err
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["q1.segments.tsv", "q2.segments.tsv", "q3.segments.tsv"]
        assert list(blocked.iterdir()) == []
        for i in (2, 3):
            assert main(["segment", str(inputs[i - 1]),
                         "--output", str(tmp_path / "alone.tsv")]) == 0
            assert (out_dir / f"q{i}.segments.tsv").read_bytes() == \
                (tmp_path / "alone.tsv").read_bytes()

    def test_workers_limited_to_inputs(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        paths = [str(_write_profile(tmp_path / f"p{i}.txt", seed=20 + i)) for i in range(2)]
        out_dir = tmp_path / "out"
        assert main(["segment", *paths, "--output", str(out_dir), "--jobs", "64"]) == 0
        assert len(forks) == 1
        assert (out_dir / "p0.segments.tsv").exists() and (out_dir / "p1.segments.tsv").exists()

    def test_jobs_do_not_change_output(self, tmp_path):
        paths = [str(_write_profile(tmp_path / f"p{i}.txt", seed=10 + i, length=1500))
                 for i in range(3)]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["segment", *paths, "--output", str(serial), "--jobs", "1"]) == 0
        assert main(["segment", *paths, "--output", str(parallel), "--jobs", "3"]) == 0
        for i in range(3):
            name = f"p{i}.segments.tsv"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_bed_output(self, tmp_path):
        from segscan import PlantedSegment
        path = _write_profile(tmp_path / "p.txt", seed=5, length=2000,
                              planted=(PlantedSegment(500, 600, 2.5),))
        out = tmp_path / "segs.bed"
        assert main(["segment", str(path), "--out-format", "bed",
                     "--output", str(out)]) == 0
        data = out.read_bytes()
        assert data and not data.startswith(b"#")

    def test_bare_flags_give_default_config(self):
        args = cli.build_parser().parse_args(["segment", "x.txt"])
        assert cli._config_from(args) == segscan.ScanConfig()

    def test_one_profile_same_table_on_every_route(self, tmp_path, capsysbinary):
        path = _write_profile(tmp_path / "p.txt", seed=31)
        other = _write_profile(tmp_path / "q.txt", seed=32)
        assert main(["segment", str(path)]) == 0
        stdout = capsysbinary.readouterr().out
        assert main(["segment", str(path), "--output", str(tmp_path / "p.tsv")]) == 0
        assert main(["segment", str(path), str(other), "--output", str(tmp_path / "out")]) == 0
        assert stdout.startswith(b"#label")
        assert (tmp_path / "p.tsv").read_bytes() == stdout
        assert (tmp_path / "out" / "p.segments.tsv").read_bytes() == stdout

    def test_one_input_starts_no_pool(self, tmp_path, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("a worker was forked for one input")

        monkeypatch.setattr(os, "fork", no_fork)
        path = _write_profile(tmp_path / "p.txt", seed=33)
        assert main(["segment", str(path), "--jobs", "4"]) == 0
        assert capsys.readouterr().out.startswith("#label")

    def test_output_naming_a_file_names_the_output(self, tmp_path, capsys):
        paths = [str(_write_profile(tmp_path / f"p{i}.txt", seed=40 + i)) for i in range(2)]
        out = tmp_path / "F"
        out.write_text("")
        assert main(["segment", *paths, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"segscan: error: {out}: File exists\n"

    @pytest.mark.parametrize("flag, value, field", [("--rho", "inf", "rho"),
                                                    ("--pb", "nan", "p_b"),
                                                    ("--sigma", "nan", "sigma")])
    def test_nonfinite_scan_parameter_is_data_error(self, tmp_path, capsys, flag, value, field):
        path = _write_profile(tmp_path / "p.txt", seed=34)
        assert main(["segment", str(path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"segscan: error: {field} must be")
        assert "Traceback" not in err


def test_unexpected_exception_is_internal_error_with_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("unexpected state")
    monkeypatch.setitem(cli._COMMANDS, "segment", broken)
    assert main(["segment", "unused.txt"]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: unexpected state" in err


class TestForkedWorkers:
    """``--jobs`` over several inputs: this process and forked children
    claim inputs from one pipe."""

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025, 5000])
    def test_every_input_claimed_once(self, monkeypatch, n):
        run, tokens = cli._claim_tokens(n)
        assert len(tokens) % 4 == 0 and len(tokens) <= select.PIPE_BUF
        monkeypatch.setattr(cli, "_segment_one", lambda label: label)
        claims, writer = os.pipe()
        os.write(writer, tokens)
        os.close(writer)
        try:
            done = cli._run_claims(claims, run, [(f"in{i}",) for i in range(n)])
        finally:
            os.close(claims)
        assert done == [(i, f"in{i}") for i in range(n)]

    def test_without_fork_inputs_run_in_process(self, tmp_path, monkeypatch):
        paths = [str(_write_profile(tmp_path / f"p{i}.txt", seed=50 + i)) for i in range(2)]
        assert main(["segment", *paths, "--output", str(tmp_path / "forked"),
                     "--jobs", "2"]) == 0
        monkeypatch.delattr(os, "fork")
        assert main(["segment", *paths, "--output", str(tmp_path / "serial"),
                     "--jobs", "2"]) == 0
        for i in range(2):
            name = f"p{i}.segments.tsv"
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _split(tmp_path, monkeypatch, in_child, in_parent=lambda: None):
        """Two inputs at --jobs 2, the second run by the one child.

        The parent holds its first input until the child has started the
        other one, then calls ``in_parent``; the child calls ``in_child``.
        Returns the inputs and main's exit code.
        """
        paths = [str(_write_profile(tmp_path / f"p{i}.txt", seed=60 + i)) for i in range(2)]
        parent = os.getpid()
        started, starting = os.pipe()
        real = cli._segment_one

        def segment_one(*item):
            if os.getpid() != parent:
                os.write(starting, b"!")
                in_child()
            else:
                assert select.select([started], [], [], 30)[0], "the child never started"
                in_parent()
            return real(*item)

        monkeypatch.setattr(cli, "_segment_one", segment_one)
        try:
            code = main(["segment", *paths, "--output", str(tmp_path / "out"), "--jobs", "2"])
        finally:
            os.close(started)
            os.close(starting)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        return paths, code

    def test_split_runs_both_processes(self, tmp_path, monkeypatch, capsys):
        _, code = self._split(tmp_path, monkeypatch, in_child=lambda: None)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["p0.segments.tsv", "p1.segments.tsv"]

    def test_exception_in_child_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def in_child():
            raise RuntimeError("child share failed")

        _, code = self._split(tmp_path, monkeypatch, in_child)
        assert code == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: child share failed" in err

    def test_dead_child_names_inputs_without_outcome(self, tmp_path, monkeypatch, capsys):
        def in_child():
            os.kill(os.getpid(), signal.SIGKILL)

        paths, code = self._split(tmp_path, monkeypatch, in_child)
        assert code == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert f"no outcome for {paths[1]}: " in err
        assert f"exited with status {-signal.SIGKILL}" in err
        assert paths[0] not in err

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_in_parent_kills_children(self, tmp_path, monkeypatch, capsys, error):
        def in_parent():
            raise error("parent share failed")

        # a child that is never killed holds main for a minute
        def in_child():
            time.sleep(60)

        t0 = time.perf_counter()
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self._split(tmp_path, monkeypatch, in_child, in_parent)
        else:
            _, code = self._split(tmp_path, monkeypatch, in_child, in_parent)
            assert code == cli.EXIT_INTERNAL
            assert "RuntimeError: parent share failed" in capsys.readouterr().err
        assert time.perf_counter() - t0 < 30


class TestSimulate:
    def test_outdir_naming_a_file_names_the_outdir(self, tmp_path, capsys):
        out = tmp_path / "F"
        out.write_text("")
        assert main(["simulate", "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == f"segscan: error: {out}: File exists\n"

    def test_writes_suite_and_manifest(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["simulate", "--kind", "short", "--snr", "1.0",
                     "--seed", "0", "--outdir", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "truth.tsv" in files
        assert sum(name.endswith(".txt") for name in files) == 10
        first = (out / "profile_00.txt").read_text().splitlines()
        assert len(first) == 5000

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--kind", "short", "--seed", "7",
                         "--outdir", str(out)]) == 0
        for name in ("profile_00.txt", "profile_09.txt", "truth.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_long_kind_length(self, tmp_path):
        out = tmp_path / "long"
        assert main(["simulate", "--kind", "long", "--outdir", str(out)]) == 0
        assert len((out / "profile_03.txt").read_text().splitlines()) == 100_000


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    assert main(["simulate", "--kind", "short", "--snr", "2.0",
                 "--seed", "0", "--outdir", str(out)]) == 0
    return out


class TestEvaluateAndBench:
    def test_evaluate_flow(self, suite_dir, tmp_path, capsys):
        seg_dir = tmp_path / "segs"
        inputs = sorted(str(p) for p in suite_dir.glob("profile_*.txt"))
        assert main(["segment", *inputs, "--output", str(seg_dir), "--jobs", "2"]) == 0
        report = tmp_path / "report.tsv"
        assert main(["evaluate", "--truth", str(suite_dir / "truth.tsv"),
                     "--pred-dir", str(seg_dir), "--output", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("#profile_id")
        assert len(lines) == 12  # header + 10 profiles + MEAN
        mean_row = lines[-1].split("\t")
        assert mean_row[0] == "MEAN"
        assert 0.0 <= float(mean_row[-1]) <= 1.0

    def test_evaluate_missing_prediction_is_data_error(self, suite_dir, tmp_path, capsys):
        assert main(["evaluate", "--truth", str(suite_dir / "truth.tsv"),
                     "--pred-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_evaluate_malformed_length_header_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("# length=abc\n#profile_id\tstart\tend\tmu\np\t0\t5\t1.0\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert f"{truth}: line 1: malformed length header" in capsys.readouterr().err

    def test_evaluate_unknown_length_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("#profile_id\tstart\tend\tmu\np\t0\t5\t1.0\n")
        (tmp_path / "p.segments.tsv").write_text(".\t0\t5\t1.0\t2.0\t0.01\t1\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert "profile length unknown; pass --length" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_evaluate_nonpositive_length_flag_is_usage_error(self, tmp_path, capsys, length):
        truth = tmp_path / "truth.tsv"
        truth.write_text("#profile_id\tstart\tend\tmu\np\t0\t5\t1.0\n")
        (tmp_path / "p.segments.tsv").write_text(".\t0\t5\t1.0\t2.0\t0.01\t1\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path),
                     "--length", length]) == 1
        assert "--length: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_evaluate_nonpositive_length_header_is_data_error(self, tmp_path, capsys, length):
        truth = tmp_path / "truth.tsv"
        truth.write_text(f"#profile_id\tstart\tend\tmu\n# length={length}\np\t0\t5\t1.0\n")
        (tmp_path / "p.segments.tsv").write_text(".\t0\t5\t1.0\t2.0\t0.01\t1\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert f"{truth}: line 2: length header" in capsys.readouterr().err

    def test_evaluate_bad_prediction_table_names_the_file(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("# length=10\n#profile_id\tstart\tend\tmu\np\t0\t5\t1.0\n")
        pred = tmp_path / "p.segments.tsv"
        pred.write_text(".\t0\t5\t1.0\t2.0\t0.01\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert f"{pred}: line 1: expected 7 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["truth", "pred"])
    def test_evaluate_segment_beyond_length_names_the_file(self, tmp_path, capsys, bad):
        truth = tmp_path / "truth.tsv"
        pred = tmp_path / "p.segments.tsv"
        far, near = "0\t50", "0\t5"
        truth.write_text(f"# length=10\n#profile_id\tstart\tend\tmu\n"
                         f"p\t{far if bad == 'truth' else near}\t1.0\n")
        pred.write_text(f".\t{far if bad == 'pred' else near}\t1.0\t2.0\t0.01\t1\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        named = truth if bad == "truth" else pred
        assert f"{named}: segment [0, 50) outside [0, 10)" in capsys.readouterr().err

    def test_evaluate_inverted_predicted_interval_names_the_line(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("# length=10\n#profile_id\tstart\tend\tmu\np\t0\t5\t1.0\n")
        pred = tmp_path / "p.segments.tsv"
        pred.write_text("#header\n.\t5\t3\t1.0\t2.0\t0.01\t1\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert f"{pred}: line 2: invalid segment interval [5, 3)" in capsys.readouterr().err

    def test_evaluate_inverted_planted_interval_names_the_line(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("# length=10\n#profile_id\tstart\tend\tmu\np\t7\t5\t1.0\n")
        assert main(["evaluate", "--truth", str(truth), "--pred-dir", str(tmp_path)]) == 2
        assert f"{truth}: line 3: invalid planted interval [7, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    @pytest.mark.parametrize("fchmod", [True, False], ids=["fchmod", "no-fchmod"])
    def test_outputs_get_the_umask_mode(self, tmp_path, monkeypatch, umask, fchmod):
        # a plain open would create 0o666 less the umask; a temporary file
        # renamed into place must not leave its own 0o600 behind. Windows
        # has no os.fchmod before Python 3.13, and the writes must not need it
        if not fchmod:
            monkeypatch.delattr(os, "fchmod", raising=False)
        suite = tmp_path / "suite"
        suite.mkdir()
        _write_profile(suite / "profile_00.txt", length=300)
        (suite / "truth.tsv").write_bytes(write_truth_manifest({"profile_00": []}, length=300))
        preds = tmp_path / "preds"
        preds.mkdir()
        outputs = [preds / "profile_00.segments.tsv", tmp_path / "report.tsv",
                   tmp_path / "times.tsv"]
        previous = os.umask(umask)
        try:
            assert main(["segment", str(suite / "profile_00.txt"), "--output",
                         str(outputs[0])]) == 0
            assert main(["evaluate", "--truth", str(suite / "truth.tsv"), "--pred-dir",
                         str(preds), "--output", str(outputs[1])]) == 0
            assert main(["bench", "--suite", str(suite), "--repetitions", "1",
                         "--output", str(outputs[2])]) == 0
        finally:
            os.umask(previous)
        assert [oct(path.stat().st_mode & 0o777) for path in outputs] == [oct(0o666 & ~umask)] * 3

    def test_bench_reports_median_times(self, suite_dir, tmp_path):
        out = tmp_path / "times.tsv"
        assert main(["bench", "--suite", str(suite_dir), "--repetitions", "2",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#profile_id\tn\tparse_seconds\tsegment_seconds"
        assert len(lines) == 12
        assert lines[-1].startswith("TOTAL")
        total = float(lines[-1].split("\t")[-1])
        per_profile = [float(line.split("\t")[-1]) for line in lines[1:-1]]
        # columns are printed with 6 decimals, so allow rounding slop
        assert total == pytest.approx(sum(per_profile), abs=1e-4)

    def test_bench_parses_each_profile_once_per_repetition(self, suite_dir, tmp_path,
                                                           monkeypatch):
        # parse_seconds is a median over the repetitions, like segment_seconds
        parsed = []
        read_profile = cli.read_profile
        monkeypatch.setattr(cli, "read_profile",
                            lambda path, format: parsed.append(path) or read_profile(path, format))
        assert main(["bench", "--suite", str(suite_dir), "--repetitions", "3",
                     "--output", str(tmp_path / "times.tsv")]) == 0
        assert len(parsed) == 3 * len(set(parsed)) == 30

    @pytest.mark.parametrize("text, message", [
        ("0.5\nNA\n0.25\n", "line 2: malformed numeric field 'NA'"),
        ("0.5\n" * 20, "MAD is zero"),
    ], ids=["parse", "segment"])
    def test_bench_bad_profile_names_the_file(self, suite_dir, tmp_path, capsys, text, message):
        suite = tmp_path / "suite"
        suite.mkdir()
        for path in suite_dir.iterdir():
            (suite / path.name).write_bytes(path.read_bytes())
        bad = suite / "profile_03.txt"
        bad.write_text(text)
        assert main(["bench", "--suite", str(suite), "--repetitions", "1"]) == 2
        assert f"segscan: error: {bad}: {message}" in capsys.readouterr().err

    def test_bench_bad_manifest_names_the_file(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("# length=abc\n#profile_id\tstart\tend\tmu\n")
        assert main(["bench", "--suite", str(tmp_path)]) == 2
        assert f"{truth}: line 1: malformed length header" in capsys.readouterr().err


@pytest.mark.parametrize("package", ["scipy", "concurrent.futures.process", "concurrent.futures",
                                     "multiprocessing", "segscan.evaluation",
                                     "segscan.simulation", "statistics"])
def test_cli_import_does_not_load(package):
    # scipy.special once took most of every CLI process's start-up, and a
    # process pool's machinery (~12 ms) would slow every run to serve only
    # --jobs, which forks workers itself; the oracles, the simulator and
    # statistics serve only the other subcommands. Importing the CLI may
    # bring in none of them
    code = ("import sys, segscan.cli; "
            f"print([m for m in sys.modules if (m + '.').startswith({package + '.'!r})])")
    env = dict(os.environ, PYTHONPATH=str(Path(segscan.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_package_resolves_the_oracle_and_simulator_names_on_first_use():
    code = ("import sys, segscan; "
            "assert 'segscan.evaluation' not in sys.modules; "
            "assert 'segscan.simulation' not in sys.modules; "
            "from segscan import score, simulate; "
            "import segscan.evaluation, segscan.simulation; "
            "assert score is segscan.evaluation.score; "
            "assert simulate is segscan.simulation.simulate; "
            "assert set(segscan.__all__) <= set(dir(segscan)); "
            "assert all(getattr(segscan, name) is not None for name in segscan.__all__); "
            "print(hasattr(segscan, 'no_such_name'))")
    env = dict(os.environ, PYTHONPATH=str(Path(segscan.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_package_lists_and_resolves_lazy_names(monkeypatch):
    import segscan.evaluation
    # names an import or an earlier lookup bound would bypass the package's hooks
    lazy = {name for names in segscan._LAZY.values() for name in names}
    for name in lazy | set(segscan._LAZY):
        monkeypatch.delattr(segscan, name, raising=False)
    assert lazy <= set(dir(segscan))
    assert segscan.evaluation is sys.modules["segscan.evaluation"]
