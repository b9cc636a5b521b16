"""oced-forge benchmark: the real CLI on a seeded BPIC-2013-shaped log.

    python3 bench/run.py --workload pingpong --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is taken from `src/` beside this directory
(`python -m oced_forge` with `src` on PYTHONPATH, no install).  Inputs and
outputs go to `.bench_work/` at the repository root.

Set-up (timed as `setup_s`, done SETUP_REPEATS times, median reported):
generate the log and its ground truth, `convert` it to canonical Turtle, and
for `explore` rewrite that Turtle subject-grouped.

`--trace 0` is a closed loop with one client: the six commands run one at a
time, in order, for `--seconds` seconds (at least MIN_REPS rounds).  Each
command is timed from spawn to exit, its peak RSS comes from `os.wait4`, and
its output is checked against the ground truth and against the digests of
earlier rounds and runs.

Every timing is reported at the reference speed: the fixed job in
calibrate.py runs before and after each command (and each set-up), and a
sample is the command's wall time times NOMINAL_CALIBRATION_S over the mean
of those two calibration times.  The reported value is the median of the
samples; the raw wall-time median is printed beside it.  On a shared host
this takes out the minutes-long swings in core speed that would otherwise
move every timing of a run together.

`--trace 1` runs the pipeline in-process with spans around each layer's
public functions (see layertrace.py) and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed (the
commands that exited non-zero, printed a traceback or failed a check) and
metrics.  Each failure is also printed to stderr.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import grouped
import loggen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CASES = 200
SETUP_REPEATS = 5
MIN_REPS = 3
COMMAND_TIMEOUT_S = 60
CALIBRATION = Path(calibrate.__file__).resolve()
# calibrate.py's wall time at the reference speed, about its median on an
# otherwise idle 2-core Xeon (2.1 GHz) virtual machine with Python 3
NOMINAL_CALIBRATION_S = 0.18

# workload -> Turtle layout the read commands get
WORKLOADS = {"pingpong": "canonical", "explore": "grouped"}

# (metric, CLI arguments after the input path); convert reads the log, the
# rest read the workload's Turtle file
COMMANDS = [
    ("convert_s", ["convert", "{log}", "--output", "{out}"]),
    ("ping_pong_s", ["analyze", "{ttl}", "--analysis", "ping-pong", "--format", "csv"]),
    ("teams_s", ["analyze", "{ttl}", "--analysis", "teams", "--format", "csv"]),
    ("stats_s", ["stats", "{ttl}"]),
    ("event_objects_s", ["analyze", "{ttl}", "--analysis", "event-objects", "--format", "jsonl"]),
    ("export_dot_s", ["export-dot", "{ttl}"]),
]

CONVERT_LINE = re.compile(
    r"convert: (\d+) traces, (\d+) events emitted, (\d+) skipped, (\d+) objects, "
    r"(\d+) triples, (\d+) warnings"
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], cwd: Path, stdout_path: Path) -> tuple[float, float, int, str]:
    """Run `python -m oced_forge ARGS`; return (seconds, peak RSS MB, exit code, stderr)."""
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "oced_forge", *args], cwd=cwd, env=cli_env(), stdout=out, stderr=err
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4, not proc.wait, so the child's own resource usage comes back
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode, stderr_path.read_text("utf-8", "replace")


def time_calibration(cwd: Path) -> float:
    """Wall time of one run of the calibration job, spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CALIBRATION)], cwd=cwd, capture_output=True,
                          timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != str(calibrate.EXPECTED).encode():
        raise RuntimeError(f"calibration job failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_digest() -> str:
    """Digest of the package sources; with the input's digest it keys stored output digests."""
    h = hashlib.sha256()
    for path in sorted((SRC / "oced_forge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# -- output checks -------------------------------------------------------------


def check_convert(out: bytes, err: str, truth: dict) -> str | None:
    m = CONVERT_LINE.search(err)
    want = (truth["cases"], truth["events"], 0, truth["objects"], truth["triples"], 0)
    if m is None or tuple(int(g) for g in m.groups()) != want:
        return f"summary line {m.group(0) if m else None!r}, expected counts {want}"
    lines = out.count(b"\n")
    if lines != truth["triples"] + 6:  # 5 prefixes, a blank line, the triples
        return f"{lines} Turtle lines, expected {truth['triples'] + 6}"
    return None


def _csv_rows(out: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out.decode("utf-8"), newline="")))


def check_ping_pong(out: bytes, err: str, truth: dict) -> str | None:
    rows = _csv_rows(out)
    want = [["case", "has_ping_pong", "min_time", "max_time"]] + [
        [case, "true" if has else "false", lo, hi] for case, has, lo, hi in truth["ping_pong_rows"]
    ]
    if rows != want:
        got_true = {row[0] for row in rows[1:] if len(row) > 1 and row[1] == "true"}
        return (
            f"ping-pong rows differ: {len(rows) - 1} rows, {len(got_true)} true; expected "
            f"{len(want) - 1} rows, {len(truth['ping_pong_true'])} true"
        )
    return None


def check_teams(out: bytes, err: str, truth: dict) -> str | None:
    rows = _csv_rows(out)
    want = [["team", "cases_involved", "witness_count"]] + [
        [team, str(cases), str(witnesses)] for team, cases, witnesses in truth["team_rows"]
    ]
    if rows != want:
        return f"team rows differ: {len(rows) - 1} rows, expected {len(want) - 1}"
    return None


def check_stats(out: bytes, err: str, truth: dict) -> str | None:
    got = dict(line.split(None, 1) for line in out.decode("utf-8").splitlines() if line.strip())
    want = {"format": "ttl"}
    for key in ("triples", "events", "objects", "eo_relations", "oo_relations",
                "event_types", "object_types", "cases"):
        want[key] = str(truth[key])
    got = {k: v.strip() for k, v in got.items()}
    if got != want:
        return f"stats {got}, expected {want}"
    return None


def check_event_objects(out: bytes, err: str, truth: dict) -> str | None:
    rows = [json.loads(line) for line in out.decode("utf-8").splitlines()]
    if len(rows) != truth["eo_relations"]:
        return f"{len(rows)} event-object rows, expected {truth['eo_relations']}"
    if any(row.get("event") is None or row.get("object") is None for row in rows):
        return "event-object row without event or object"
    return None


def check_dot(out: bytes, err: str, truth: dict) -> str | None:
    lines = out.decode("utf-8").splitlines()
    nodes = sum(1 for line in lines if "[shape=" in line)
    edges = sum(1 for line in lines if " -> " in line)
    want = (truth["events"] + truth["objects"], truth["eo_relations"] + truth["oo_relations"])
    if (nodes, edges) != want or lines[0] != "digraph oced {" or lines[-1] != "}":
        return f"DOT has {nodes} nodes and {edges} edges, expected {want}"
    return None


CHECKS = {
    "convert_s": check_convert,
    "ping_pong_s": check_ping_pong,
    "teams_s": check_teams,
    "stats_s": check_stats,
    "event_objects_s": check_event_objects,
    "export_dot_s": check_dot,
}


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, seed: int, cases: int, work: Path) -> tuple[Path, Path, dict]:
    """Make the inputs in `work`; return (log path, Turtle path, ground truth)."""
    if work.exists():
        shutil.rmtree(work)
    log_path, truth = loggen.write(seed, cases, str(work))
    canonical = work / "canonical.ttl"
    _, _, code, err = run_cli(["convert", "log.xes.gz", "--output", canonical.name, "--quiet"],
                              work, work / "setup-convert.out")
    if code != 0 or not canonical.exists():
        raise RuntimeError(f"set-up convert exited {code}: {err.strip()}")
    ttl = canonical
    if WORKLOADS[workload] == "grouped":
        ttl = work / "grouped.ttl"
        ttl.write_text(grouped.group_turtle(canonical.read_text("utf-8")), "utf-8")
    return Path(log_path), ttl, truth


class Results:
    """Samples per metric, the failure count, and output digests."""

    def __init__(self, digest_file: Path, key: str):
        # metric -> (wall seconds, mean calibration seconds around it)
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digest_file = digest_file
        self.key = key
        self.stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
        self.seen: dict[str, str] = {}

    def fail(self, what: str, why: str):
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def record(self, metric: str, seconds: float, calibration: float, rss: float, code: int,
               err: str, out: bytes, truth: dict):
        self.attempted += 1
        self.rss.append(rss)
        problem = None
        if code != 0:
            problem = f"exit code {code}: {err.strip()[-500:]}"
        elif "Traceback" in err:
            problem = f"traceback on stderr: {err.strip()[-500:]}"
        else:
            problem = CHECKS[metric](out, err, truth)
        if problem is None:
            d = digest(out)
            earlier = self.seen.setdefault(metric, self.stored.get(f"{self.key}:{metric}", d))
            if d != earlier:
                problem = f"output digest {d[:12]} differs from earlier {earlier[:12]}"
        if problem:
            self.fail(metric, problem)
        else:
            self.samples.setdefault(metric, []).append((seconds, calibration))

    def save_digests(self):
        for metric, d in self.seen.items():
            self.stored[f"{self.key}:{metric}"] = d
        self.digest_file.write_text(json.dumps(self.stored, indent=1, sort_keys=True))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def at_reference_speed(samples: list[tuple[float, float]]) -> list[float]:
    return [seconds * NOMINAL_CALIBRATION_S / calibration for seconds, calibration in samples]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    work_root = WORK / f"{workload}-{seed}"
    shutil.rmtree(work_root, ignore_errors=True)
    setup_times = []
    truth = None
    log_digests = set()
    work_root.mkdir(parents=True)
    calibration = time_calibration(work_root)
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        log_path, ttl, truth = setup(workload, seed, CASES, work_root / f"setup{i}")
        elapsed = time.perf_counter() - start
        after = time_calibration(work_root)
        setup_times.append((elapsed, (calibration + after) / 2))
        calibration = after
        log_digests.add(digest(log_path.read_bytes()))

    # no workload in the key: both Turtle layouts must give the same bytes
    results = Results(WORK / "digests.json", f"{src_digest()}:{min(log_digests)[:16]}")
    if len(log_digests) != 1:
        results.fail("setup", "the generator gave different logs for one seed")
    runs = work_root / "runs"
    runs.mkdir()
    converted = runs / "converted.ttl"
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_REPS or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for metric, template in COMMANDS:
            out_file = runs / f"{metric}.out"
            args = [a.format(log=log_path, out=converted, ttl=ttl) for a in template]
            converted.unlink(missing_ok=True)
            elapsed, rss, code, err = run_cli(args, runs, out_file)
            after = time_calibration(runs)
            if metric == "convert_s":
                out_file = converted if converted.exists() else out_file
            out = out_file.read_bytes()
            results.record(metric, elapsed, (calibration + after) / 2, rss, code, err, out, truth)
            calibration = after
        rounds += 1
    results.save_digests()
    # every sample, for comparing runs later: metric -> [[wall s, calibration s], ...]
    (work_root / "samples.json").write_text(
        json.dumps({**results.samples, "setup_s": setup_times}))

    print(f"{workload} seed {seed}: {CASES} cases, {truth['events']} events, "
          f"{truth['triples']} triples, {rounds} rounds")
    print("at reference speed (median, quartiles), raw wall-time median, samples")
    print(f"{'metric':<16} {'median':>9} {'q1':>9} {'q3':>9} {'raw':>9}  n")
    metrics = {}
    timings = [(metric, results.samples.get(metric, [])) for metric, _ in COMMANDS]
    for metric, samples in timings + [("setup_s", setup_times)]:
        if samples:
            q1, med, q3 = quartiles(at_reference_speed(samples))
            raw = statistics.median(wall for wall, _ in samples)
            metrics[metric] = {"value": med, "unit": "s"}
            print(f"{metric:<16} {med:9.4f} {q1:9.4f} {q3:9.4f} {raw:9.4f}  {len(samples)}")
    metrics["peak_rss_mb"] = {"value": max(results.rss), "unit": "MB"}
    print(f"{'peak_rss_mb':<16} {max(results.rss):9.2f}  (max of {len(results.rss)})")
    print(f"failed_ops {results.failed}/{results.attempted}")
    return {
        "correct": results.failed == 0 and len(metrics) == len(COMMANDS) + 2,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="oced-forge benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "oced_forge" / "__main__.py").is_file():
        print(f"bench: no oced_forge package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.trace:
        import layertrace

        result = layertrace.traced_run(args.workload, args.seed, CASES, WORK)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
