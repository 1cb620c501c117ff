"""Benchmark of the segscan command line and library on seeded workloads.

    python3 segbench/run.py --workload long-sparse --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from the seed into ``.bench_work/`` before
any timing. With ``--trace 0`` the run measures the end-to-end metrics:
fresh ``segscan segment`` processes with one and two jobs, warm in-process
``segment_profile`` throughput and fresh-interpreter import time. With
``--trace 1`` it replays the stages under spans and reports the per-layer
metrics. Every measured operation's output is checked. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory for the workloads and the
layer-to-metric predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Every timing is the median over rounds; a run measures at least this many
#: rounds (traced runs need two, to check that counts repeat).
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
JOBS = 2
#: In-process library time per round, in seconds.
LIBRARY_SECONDS = 2.0
#: End-to-end timings are scaled to a machine on which the speed probe, a
#: pure-Python loop of PROBE_ITERATIONS steps, takes REFERENCE_PROBE_S.
PROBE_ITERATIONS = 100_000
REFERENCE_PROBE_S = 0.008
REL_TOL = 1e-9

IMPORT_PROBE = ("import time; t = time.perf_counter(); import segscan.cli; "
                "print(repr(time.perf_counter() - t))")
CLI_MAIN = "import sys; from segscan.cli import main; sys.exit(main())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Ledger:
    """Counts attempted and failed operations and says why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Runner:
    """Runs the program's fresh-process paths and checks what they write."""

    def __init__(self, workload, tables: list[bytes], work: Path, ledger: Ledger):
        self.workload = workload
        self.tables = tables
        self.work = work
        self.ledger = ledger
        self.env = child_env()

    def import_seconds(self) -> float | None:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if not self.ledger.record(proc.returncode == 0, f"import probe: {proc.stderr[-500:]}"):
            return None
        return float(proc.stdout.strip().splitlines()[-1])

    def cli(self, jobs: int) -> tuple[float, float] | None:
        """(wall seconds, peak RSS in MB) of one checked ``segscan segment`` run."""
        out_dir = self.work / f"cli-jobs{jobs}"
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, "-c", CLI_MAIN, "segment",
               *(str(t.path) for t in self.workload.tracks), "--format", self.workload.fmt,
               "--output", str(out_dir), "--jobs", str(jobs)]
        with open(self.work / "cli.stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read()[-500:].decode(errors="replace")
        if not self.ledger.record(proc.returncode == 0,
                                  f"segscan segment --jobs {jobs} exited "
                                  f"{proc.returncode}: {message}"):
            return None
        same = all((out_dir / f"{t.path.stem}.segments.tsv").read_bytes() == table
                   for t, table in zip(self.workload.tracks, self.tables))
        if not self.ledger.record(same, f"--jobs {jobs} tables differ from the library's"):
            return None
        return wall, usage.ru_maxrss / 1024


def check_result(result, values: np.ndarray) -> str | None:
    """Return why a segmentation result is wrong, or None if it checks out."""
    n = values.size
    records = result.records
    for a, b in zip(records, records[1:]):
        if b.start < a.end:
            return f"records not sorted and disjoint at [{a.start}, {a.end}), [{b.start}, {b.end})"
    for r in records:
        if not 0 <= r.start < r.end <= n:
            return f"record [{r.start}, {r.end}) outside [0, {n})"
    med = np.median(values)
    sigma = 1.4826 * np.median(np.abs(values - med))
    for r in records:
        mean = float(np.mean(values[r.start:r.end]))
        z = mean * math.sqrt(r.end - r.start) / sigma
        if not (math.isclose(mean, r.mean, rel_tol=REL_TOL)
                and math.isclose(z, r.z, rel_tol=REL_TOL)):
            return f"[{r.start}, {r.end}) mean/z {r.mean!r}/{r.z!r}, recomputed {mean!r}/{z!r}"
    flagged = [r.log_p for r in records if r.significant]
    unflagged = [r.log_p for r in records if not r.significant]
    if flagged and unflagged and min(unflagged) < max(flagged):
        return "an unflagged segment has a smaller p-value than a flagged one"
    return None


def median(values) -> float:
    return float(statistics.median(values))


def _probe_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


class Gauge:
    """Times tasks on chosen CPUs, scaled by those CPUs' speed around each.

    On a shared host each CPU's speed drifts by about 30% over seconds to
    minutes, and a process on one CPU does not see the other's drift. The
    gauge pins this process, and so the processes it starts, to the task's
    CPUs. It times a fixed loop on each of them before and after the task,
    and scales the task's time by REFERENCE_PROBE_S over the geometric mean
    of the two. A task on several CPUs takes their mean speed, because the
    command line hands files to its workers as they come free.
    """

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        cpus = sorted(self.allowed)
        self.one = {cpus[0]}
        self.pair = set(cpus[:JOBS])

    def _probe(self, cpus) -> float:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(min(_probe_once() for _ in range(3)))
        return statistics.fmean(times)

    def scaled(self, cpus, task):
        """Run ``task`` on ``cpus``; return its result and the time scale."""
        before = self._probe(cpus)
        os.sched_setaffinity(0, cpus)
        try:
            result = task()
        finally:
            after = self._probe(cpus)
            os.sched_setaffinity(0, self.allowed)
        return result, REFERENCE_PROBE_S / math.sqrt(before * after)


def run_rounds(seconds: float, tasks, min_rounds: int) -> int:
    """Run every task once per round, rotating their order, until time is up."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        shift = rounds % len(tasks)
        for task in tasks[shift:] + tasks[:shift]:
            task()
        rounds += 1
    return rounds


def measure_end_to_end(workload, loaded, runner: Runner, ledger: Ledger, seconds: float):
    from segscan import segment_profile

    gauge = Gauge()
    samples = {"setup": [], "jobs1": [], "rss": [], "jobs2": [], "pps": []}
    raw = {"setup": [], "jobs1": [], "jobs2": [], "pps": []}
    points = workload.points

    def add(key, value, scale):
        raw[key].append(value)
        samples[key].append(value * scale)

    def setup():
        t, scale = gauge.scaled(gauge.one, runner.import_seconds)
        if t is not None:
            add("setup", t, scale)

    def jobs1():
        got, scale = gauge.scaled(gauge.one, lambda: runner.cli(1))
        if got is not None:
            add("jobs1", got[0], scale)
            samples["rss"].append(got[1])

    def jobs2():
        got, scale = gauge.scaled(gauge.pair, lambda: runner.cli(JOBS))
        if got is not None:
            add("jobs2", got[0], scale)

    def library_pass():
        elapsed, ok = 0.0, True
        for i, (profile, reference) in enumerate(loaded):
            start = time.perf_counter()
            try:
                records = segment_profile(profile).records
            except Exception:
                traceback.print_exc()
                records = None
            elapsed += time.perf_counter() - start
            ok &= ledger.record(records == reference.records,
                                f"segment_profile on track {i} differs from its first run")
        return elapsed, ok

    def library():
        # passes are short on small workloads, so a round repeats them to
        # take as many samples as the CLI runs take time
        spent = 0.0
        while spent < LIBRARY_SECONDS:
            (elapsed, ok), scale = gauge.scaled(gauge.one, library_pass)
            spent += elapsed
            if ok:
                raw["pps"].append(points / elapsed)
                samples["pps"].append(points / (elapsed * scale))

    rounds = run_rounds(seconds, [setup, jobs1, jobs2, library], MIN_ROUNDS)
    metrics = {}
    for name, key, unit in (("cli_wall_s", "jobs1", "s"), ("cli_jobs2_wall_s", "jobs2", "s"),
                            ("cli_peak_rss_mb", "rss", "MB"), ("points_per_s", "pps", "points/s"),
                            ("setup_s", "setup", "s")):
        if samples[key]:
            metrics[name] = {"value": median(samples[key]), "unit": unit}
    print("unscaled medians: " + ", ".join(f"{key} {median(v):.6g}" for key, v in raw.items() if v))
    return metrics, rounds


def measure_layers(workload, loaded, runner: Runner, ledger: Ledger, seconds: float,
                   spans_path: Path):
    import layers
    from segscan import segment_profile

    gauge = Gauge()
    tracer = layers.Tracer()
    per_round: list[dict] = []
    counts_seen: list[dict] = []
    untraced: list[float] = []
    traced_scaled: list[float] = []
    cli_parts: dict[str, list[float]] = {"import": [], "wall": []}

    def traced_pass():
        first = len(tracer.spans)
        totals: dict[str, float] = {}
        ok = True
        for i, (track, (_, reference)) in enumerate(zip(workload.tracks, loaded)):
            try:
                records, table, counts = layers.replay(tracer, track.path, workload.fmt, i)
                same = records == reference.records and table == runner.tables[i]
            except Exception:
                traceback.print_exc()
                same, counts = False, {}
            ok &= ledger.record(same, f"stage replay of track {i} differs from segment_profile")
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        if not ok:
            return None
        durations: dict[str, float] = {}
        for name, start, end, _, _ in tracer.spans[first:]:
            durations[name] = durations.get(name, 0.0) + (end - start) / 1e9
        per_round.append({"durations": durations, "self": tracer.self_times(first)})
        counts_seen.append(totals)
        return durations

    def plain_pass():
        start = time.perf_counter()
        for profile, _ in loaded:
            segment_profile(profile)
        return time.perf_counter() - start

    # the tracing overhead compares passes made at different moments, so
    # both are scaled to the reference speed; layer times stay as measured
    def traced():
        durations, scale = gauge.scaled(gauge.one, traced_pass)
        if durations is not None:
            traced_scaled.append(durations["pipeline.segment"] * scale)

    def plain():
        elapsed, scale = gauge.scaled(gauge.one, plain_pass)
        untraced.append(elapsed * scale)

    def cli():
        t = runner.import_seconds()
        got = runner.cli(1)
        if t is not None and got is not None:
            cli_parts["import"].append(t)
            cli_parts["wall"].append(got[0])

    rounds = run_rounds(seconds, [traced, plain, cli], MIN_TRACED_ROUNDS)
    tracer.write(spans_path)
    for later in counts_seen[1:]:
        for key in layers.EXACT_COUNTS:
            ledger.record(later.get(key) == counts_seen[0].get(key),
                          f"count {key} changed between rounds: "
                          f"{counts_seen[0].get(key)} then {later.get(key)}")
    if not per_round:
        return {}, rounds

    def dur(name):
        return median(r["durations"].get(name, 0.0) for r in per_round)

    counts = counts_seen[0]
    metrics: dict[str, tuple[float, str]] = {
        "profiles.parse_s": (dur("profiles.read_profile"), "s"),
        "profiles.parse_mb_per_s": (counts["profiles.bytes_read"] / 1e6
                                    / dur("profiles.read_profile"), "MB/s"),
        "profiles.write_s": (dur("profiles.write_segments"), "s"),
        "profiles.rows_written": (counts["profiles.rows_written"], "count"),
        "stats.noise_s": (dur("stats.estimate_sigma_mad"), "s"),
        "stats.prefix_s": (dur("stats.build_prefix_sums"), "s"),
        "scanning.scan_s": (dur("scanning.scan"), "s"),
        "scanning.candidates": (counts["scanning.candidates"], "count"),
        "selection.select_s": (dur("selection.select_nonoverlapping"), "s"),
        "selection.selected": (counts["selection.selected"], "count"),
        "selection.keep_ratio": (counts["selection.selected"]
                                 / max(counts["scanning.candidates"], 1), "ratio"),
        "refinement.refine_s": (dur("refinement.refine_all"), "s"),
        "refinement.merge_s": (dur("refinement.merge_adjacent"), "s"),
        "refinement.merges": (counts["refinement.merges"], "count"),
        "significance.finalize_s": (dur("significance.finalize"), "s"),
        "significance.family_size": (counts["significance.family_size"], "count"),
        "significance.called": (counts["significance.called"], "count"),
        "pipeline.self_s": (median(r["self"]["pipeline"] for r in per_round), "s"),
        "pipeline.trace_overhead_frac": (median(traced_scaled) / median(untraced) - 1, "ratio"),
    }
    if "scanning.windows" in counts:
        windows = counts["scanning.windows"]
        metrics.update({
            "scanning.windows": (windows, "count"),
            "scanning.ns_per_window": (dur("scanning.scan") * 1e9 / windows, "ns"),
            "scanning.retain_ratio": (counts["scanning.candidates"] / windows, "ratio"),
            "scanning.ops_over_predicted": ((windows + counts["stats.prefix_ops"])
                                            / counts["scanning.predicted_ops"], "ratio"),
            "stats.prefix_ops": (counts["stats.prefix_ops"], "count"),
        })
    if "refinement.moves" in counts:
        metrics["refinement.moves"] = (counts["refinement.moves"], "count")
    if cli_parts["wall"]:
        metrics["cli.import_share"] = (median(cli_parts["import"]) / median(cli_parts["wall"]),
                                       "ratio")
    selfs = {layer: median(r["self"][layer] for r in per_round) for layer in layers.LAYERS}
    print(f"layer self time, median of {len(per_round)} rounds over {len(loaded)} tracks "
          f"(profiles is file parse and write, outside segment_profile):")
    for layer, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<13} {value:9.4f} s")
    inner = {layer: v for layer, v in selfs.items() if layer not in ("profiles", "pipeline")}
    print(f"  largest inside segment_profile: {max(inner, key=inner.get)}")
    if cli_parts["wall"]:
        print(f"  cli import {median(cli_parts['import']):.4f} s of "
              f"{median(cli_parts['wall']):.4f} s segscan segment --jobs 1 wall")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long-sparse", "dense-broad",
                                                              "null-tracks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segscan" / "cli.py").is_file():
        print(f"segbench: no segscan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from segscan import read_profile, segment_profile, write_segments

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        start = time.perf_counter()
        workload = workloads.generate(args.workload, args.seed, work / "inputs")
        print(f"generated {len(workload.tracks)} {workload.fmt} files, {workload.points} points "
              f"in {time.perf_counter() - start:.2f} s")

        ledger = Ledger()
        loaded, tables, called = [], [], []
        for i, track in enumerate(workload.tracks):
            profile = read_profile(track.path, format=workload.fmt)
            result = segment_profile(profile)
            loaded.append((profile, result))
            tables.append(write_segments(result, profile))
            called.append([(r.start, r.end) for r in result.records if r.significant])
            problem = check_result(result, track.values)
            ledger.record(problem is None, f"track {i}: {problem}")
        runner = Runner(workload, tables, work, ledger)
        runner.import_seconds()  # compile bytecode before any timing

        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, rounds = measure_layers(workload, loaded, runner, ledger, args.seconds,
                                             spans)
            print(f"wrote {spans.relative_to(ROOT)}")
        else:
            metrics, rounds = measure_end_to_end(workload, loaded, runner, ledger, args.seconds)
            quality = workloads.score(workload, called)
            metrics["f1"] = {"value": quality["f1"], "unit": "ratio"}
            metrics["calls_per_mb"] = {"value": quality["calls_per_mb"], "unit": "calls/Mpoint"}
            metrics["ok_frac"] = {"value": 1 - ledger.failed / ledger.attempted,
                                  "unit": "ratio"}
        print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
