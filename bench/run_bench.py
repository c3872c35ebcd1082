"""Seeded benchmark of the votetree pipeline.

    python3 bench/run_bench.py --workload suite-noisy --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` it measures the workload for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs one pass several times with
and without spans and reports the per-layer metrics of a traced pass.  Every
unit's summary row is checked against ``bench/expected.json``.  Context and
per-pass lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and limits are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer, instrumented

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
TRACE_REPEATS = 3
# Import the package and load the bundled dataset, then report where from.
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import votetree\n"
    "votetree.load_dataset()\n"
    "print(votetree.__file__, flush=True)\n"
)


def load_package():
    """Import votetree from this checkout's ``src/``, or exit without a result."""
    if not (SRC / "votetree" / "__init__.py").is_file():
        raise SystemExit(f"error: no votetree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import votetree

    if not Path(votetree.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: votetree was imported from {votetree.__file__}, not {SRC}")
    return votetree


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until import + load_dataset
    finish, once untimed (to compile bytecode) and then SETUP_SAMPLES times."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not Path(line.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        if i:
            samples.append(elapsed)
    return samples


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (SRC / "votetree").glob("*.py"))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload, seeds: set[int]) -> list[str]:
    """Untimed preparation; a failure is reported and the units then fail."""
    try:
        workload.prepare(sorted(seeds))
    except Exception as exc:  # the passes still run and count their failures
        traceback.print_exc(file=sys.stderr)
        return [f"preparation failed: {type(exc).__name__}: {exc}"]
    return []


def run_pass(workload, seeds, run_suite):
    units = [workload.run_unit(seed, run_suite) for seed in seeds]
    return units, sum(u.seconds for u in units)


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def end_to_end(workload, seed: int, seconds: float, votetree) -> tuple[list, dict, list]:
    passes, warm = workload.schedule(seed)
    setup = measure_setup()
    problems = prepare(workload, {s for p in passes for s in p} | set(warm))
    problems += [p for u in run_pass(workload, warm, votetree.run_suite)[0] for p in u.problems]

    units, rates = [], []
    start = time.perf_counter()
    i = 0
    while True:
        pass_units, wall = run_pass(workload, passes[i % len(passes)], votetree.run_suite)
        i += 1
        units += pass_units
        episodes = sum(u.episodes for u in pass_units if u.ok)
        rates.append(episodes / wall)
        emit({"pass": i, "seeds": [u.seed for u in pass_units], "episodes": episodes,
              "seconds": round(wall, 6), "episodes_per_s": round(episodes / wall, 3)})
        if time.perf_counter() - start >= seconds:
            break

    rows = {u.seed: u.row for u in units if u.ok}
    attempted = sum(u.episodes for u in units)
    failed = sum(u.episodes for u in units if not u.ok)

    def score(key: str) -> float:
        return statistics.fmean(r[key] for r in rows.values()) if rows else 0.0

    metrics = {
        "episodes_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sr": (score("sr_mean"), "ratio"),
        "gcr": (score("gcr_mean"), "ratio"),
        "exec": (score("exec_mean"), "ratio"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }
    emit({"setup_samples_s": [round(s, 6) for s in setup]})
    return units, metrics, problems


class Observations:
    """Per-call facts gathered by span observers during one traced pass."""

    def __init__(self, tree_stats):
        self._tree_stats = tree_stats
        self.suite_texts: set[str] = set()
        self.distinct_parses = 0
        self.samples = 0
        self.steps = 0
        self.failed_steps = 0
        self.nodes: list[int] = []
        self.episode_ms: list[float] = []

    def parsed(self, args, result, elapsed) -> None:
        self.suite_texts.add(args[0])

    def suite_done(self, args, result, elapsed) -> None:
        self.distinct_parses += len(self.suite_texts)
        self.suite_texts.clear()

    def generated(self, args, result, elapsed) -> None:
        self.samples += len(result)

    def episode(self, args, result, elapsed) -> None:
        episode, artifacts = result
        self.steps += episode.trace.attempted
        self.failed_steps += episode.trace.attempted - episode.trace.succeeded
        self.nodes.append(self._tree_stats(artifacts.root).node_count)
        self.episode_ms.append(elapsed * 1e3)


def span_targets(votetree, workload, obs: Observations) -> list[tuple]:
    """(target, attribute, span name, observer) for every layer boundary."""
    h = votetree.harness
    wraps = [
        (h, "run_one_episode", "harness.episode", obs.episode),
        (h, "format_prog_prompt", "prompts.format_prog_prompt", None),
        (h, "format_reorder_prompt", "prompts.format_reorder_prompt", None),
        (h, "default_prog_examples", "prompts.examples_load", None),
        (h, "default_reorder_examples", "prompts.examples_load", None),
        (h, "parse_plan_text", "plans.parse_plan_text", obs.parsed),
        (h, "extract_unique_commands", "plans.extract_unique_commands", None),
        (h, "build_vote_tree", "tree.build_vote_tree", None),
        (h, "derive_goal_conditions", "world.derive_goal_conditions", None),
        (h, "run_episode", "executor.run_episode", None),
        (h, "tree_to_dict", "harness.write_outputs", None),
        (h, "serialize_trace", "harness.write_outputs", None),
        (h, "_write_outputs", "harness.write_outputs", None),
        (votetree.World, "execute", "world.execute", None),
    ]
    wraps += [(cls, "generate", "providers.generate", obs.generated)
              for cls in (votetree.SyntheticProvider, votetree.ReplayProvider,
                          votetree.RemoteProvider)]
    return wraps + workload.trace_wraps()


def layer_metrics(workload, tracer, obs: Observations, units, untraced_s: float,
                  traced_s: float) -> dict:
    episodes = sum(u.episodes for u in units)
    stat = tracer.stat
    m: dict[str, tuple[float, str]] = {}
    for name in ("prompts.format_prog_prompt", "prompts.format_reorder_prompt",
                 "prompts.examples_load", "providers.generate", "plans.parse_plan_text",
                 "plans.extract_unique_commands", "tree.build_vote_tree",
                 "world.derive_goal_conditions", "world.execute", "executor.run_episode"):
        m[f"{name}.calls"] = (stat(name).calls, "count")
        m[f"{name}.s"] = (stat(name).self_s, "s")
    parses = stat("plans.parse_plan_text").calls
    executes = stat("world.execute")
    m["plans.parse_plan_text.distinct_ratio"] = (obs.distinct_parses / parses if parses else 0.0,
                                                 "ratio")
    m["providers.generate.samples"] = (obs.samples, "count")
    m["providers.transport.calls"] = (stat("providers.transport").calls, "count")
    m["providers.transport.wait_s"] = (stat("providers.transport").self_s, "s")
    for prefix in ("providers.cache", "harness.artifacts"):
        mine = workload.writes == prefix
        m[f"{prefix}.files"] = (sum(u.files for u in units) if mine else 0, "count")
        m[f"{prefix}.bytes"] = (sum(u.bytes for u in units) if mine else 0, "bytes")
    m["world.execute.calls_per_s"] = (executes.calls / executes.self_s if executes.self_s else 0.0,
                                      "1/s")
    m["executor.steps"] = (obs.steps, "count")
    m["executor.failed_steps"] = (obs.failed_steps, "count")
    m["tree.nodes_mean"] = (statistics.fmean(obs.nodes) if obs.nodes else 0.0, "count")
    m["harness.write_outputs.s"] = (stat("harness.write_outputs").self_s, "s")
    p50 = p95 = 0.0
    if len(obs.episode_ms) >= 2:
        cuts = statistics.quantiles(obs.episode_ms, n=100, method="inclusive")
        p50, p95 = cuts[49], cuts[94]
    m["harness.episode.ms_p50"] = (p50, "ms")
    m["harness.episode.ms_p95"] = (p95, "ms")
    m["harness.episode.n"] = (len(obs.episode_ms), "count")
    m["harness.self_s"] = (stat("harness.run_suite").self_s + stat("harness.episode").self_s, "s")
    m["trace.wall_s"] = (tracer.wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    for key, name in (("parse_calls", "plans.parse_plan_text"),
                      ("examples_loads", "prompts.examples_load"),
                      ("goal_derivations", "world.derive_goal_conditions"),
                      ("generate_calls", "providers.generate"),
                      ("transport_calls", "providers.transport")):
        m[f"per_episode.{key}"] = (stat(name).calls / episodes, "count")
    m["context.src_lines"] = (src_lines(), "lines")
    return m


def traced(workload, seed: int, votetree) -> tuple[list, dict, list]:
    passes, warm = workload.schedule(seed)
    target = passes[0]
    problems = prepare(workload, set(target) | set(warm))
    problems += [p for u in run_pass(workload, warm, votetree.run_suite)[0] for p in u.problems]

    units, plain, runs = [], [], []
    for _ in range(TRACE_REPEATS):
        pass_units, wall = run_pass(workload, target, votetree.run_suite)
        units += pass_units
        plain.append(wall)
        tracer, obs = Tracer(), Observations(votetree.tree_stats)
        with instrumented(tracer, span_targets(votetree, workload, obs)):
            run = tracer.wrap("harness.run_suite", votetree.run_suite, obs.suite_done)
            pass_units, wall = run_pass(workload, target, run)
        units += pass_units
        runs.append((wall, tracer, obs, pass_units))
        emit({"untraced_s": round(plain[-1], 6), "traced_s": round(wall, 6)})

    runs.sort(key=lambda r: r[0])
    wall, tracer, obs, pass_units = runs[len(runs) // 2]
    total_self = sum(s.self_s for s in tracer.stats.values())
    if abs(total_self - tracer.wall_s) > 1e-6 * tracer.wall_s:
        problems.append(f"span self times sum to {total_self}, traced wall is {tracer.wall_s}")
    metrics = layer_metrics(workload, tracer, obs, pass_units, statistics.median(plain),
                            statistics.median(r[0] for r in runs))
    return units, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    votetree = load_package()
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bundle = votetree.load_dataset()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](bundle, work_dir, load_expected())
        if args.trace:
            units, metrics, problems = traced(workload, args.seed, votetree)
        else:
            units, metrics, problems = end_to_end(workload, args.seed, args.seconds, votetree)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems += [p for u in units for p in u.problems]
    for problem, count in Counter(problems).items():
        print(f"check failed ({count}x): {problem}", file=sys.stderr)
    emit({"context": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "master_seeds": sorted({u.seed for u in units}),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines(),
    }})
    attempted = sum(u.episodes for u in units)
    failed = sum(u.episodes for u in units if not u.ok)
    correct = not problems and failed == 0
    emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
