"""The benchmark's four workloads over the 31 evaluation tasks.

A *unit* is one ``votetree.run_suite`` call for one master seed.  A *pass* is
the group of units whose episodes give one throughput sample.  Master seeds
come from a fixed pool of ``POOL_SIZE`` so that every unit's summary row can
be checked against the row ``expected.json`` stores for that seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import votetree
from votetree import NoiseModel, RemoteProvider, RunConfig, render_plan, synthesize_noisy_plans
from votetree import harness
from votetree.prompts import instruction_slug

from tracer import patched

POOL_SIZE = 32
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The noisy configuration of the roadmap: drop .2 / swap .1 / insert .1.
NOISE = {"drop_prob": 0.2, "swap_prob": 0.1, "insert_prob": 0.1}
# The fake remote generator drops and swaps but inserts no distractors, so
# its SR varies less from seed to seed over the few seeds a run covers.
REMOTE_NOISE = NoiseModel(drop_prob=0.2, swap_prob=0.1)
# Simulated generator latency per remote call.
TRANSPORT_LATENCY_S = 0.002

RunSuite = Callable[..., "harness.SuiteResult"]


def pool_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct master seeds from the pool, chosen by the workload seed."""
    return random.Random(seed).sample(range(POOL_SIZE), count)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("pool_size") != POOL_SIZE:
        raise ValueError(f"{EXPECTED_PATH} was made for another pool size")
    return doc["workloads"]


def noisy_config(seed: int, repetitions: int = 10, **overrides) -> RunConfig:
    return RunConfig(master_seed=seed, repetitions=repetitions, output_dir=None,
                     **NOISE, **overrides)


def tree_size(root: Path) -> tuple[int, int]:
    """(files, bytes) under ``root``."""
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


@dataclass
class Unit:
    seed: int
    episodes: int                 # episodes the unit was meant to run
    seconds: float = 0.0          # wall time of the run_suite call
    row: dict | None = None       # summary row, when run_suite returned
    problems: list[str] = field(default_factory=list)
    files: int = 0                # artifacts or cache entries written
    bytes: int = 0
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.row is not None and not self.problems


class Workload:
    name = ""
    repetitions = 10
    cycle = 5          # timed passes before the seed list repeats
    writes = None      # the metric prefix of the files a unit writes

    def __init__(self, bundle: harness.DatasetBundle, work_dir: Path, expected: dict | None):
        self.bundle = bundle
        self.work_dir = work_dir
        self.expected = None if expected is None else expected[self.name]
        self.episodes_per_unit = len(votetree.evaluated_tasks(bundle)) * self.repetitions
        self._dirs = 0
        self.raised = 0    # units that raised; only the first traceback is printed

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.work_dir / f"{label}-{self._dirs}"

    def schedule(self, seed: int) -> tuple[list[list[int]], list[int]]:
        """The timed passes (lists of master seeds) and the warm-up pass."""
        seeds = pool_seeds(seed, self.cycle + 1)
        return [[s] for s in seeds[:-1]], seeds[-1:]

    def prepare(self, seeds: list[int]) -> None:
        """Untimed preparation before any pass runs."""

    def trace_wraps(self) -> list[tuple]:
        """Extra (target, attribute, span name, observer) for a traced pass."""
        return []

    def config(self, seed: int) -> RunConfig:
        raise NotImplementedError

    def execute(self, config: RunConfig, run_suite: RunSuite):
        return run_suite(config, self.bundle, write_outputs=False)

    def inspect(self, unit: Unit, result, config: RunConfig) -> None:
        """Untimed checks and counts after a unit returned."""

    def cleanup(self, config: RunConfig) -> None:
        """Untimed removal of what the unit wrote."""

    def run_unit(self, seed: int, run_suite: RunSuite, check: bool = True) -> Unit:
        unit = Unit(seed, self.episodes_per_unit)
        config = self.config(seed)
        start = time.perf_counter()
        try:
            result = self.execute(config, run_suite)
            unit.seconds = time.perf_counter() - start
            unit.row = result.row.as_dict()
            self.inspect(unit, result, config)
            if check:
                self._check(unit, result)
        except Exception as exc:  # a unit that raises fails its episodes; the run goes on
            unit.seconds = unit.seconds or time.perf_counter() - start
            unit.problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            if not self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised += 1
        finally:
            self.cleanup(config)
        return unit

    def _check(self, unit: Unit, result) -> None:
        want = self.expected.get(str(unit.seed))
        if want is None:
            unit.problems.append(f"seed {unit.seed}: no expected row")
            return
        if len(result.episodes) != unit.episodes:
            unit.problems.append(f"seed {unit.seed}: {len(result.episodes)} episodes, "
                                 f"expected {unit.episodes}")
        if unit.row != want["row"]:
            unit.problems.append(f"seed {unit.seed}: row {unit.row} != expected {want['row']}")
        for name, digest in want.get("sha256", {}).items():
            if unit.digests.get(name) != digest:
                unit.problems.append(f"seed {unit.seed}: {name} differs from the expected bytes")

    def reference(self, seed: int) -> dict:
        """The expected entry for ``seed``, as make_expected.py stores it."""
        unit = self.run_unit(seed, votetree.run_suite, check=False)
        if not unit.ok:
            raise RuntimeError(f"{self.name} seed {seed}: {unit.problems}")
        entry = {"row": unit.row}
        if unit.digests:
            entry["sha256"] = unit.digests
        return entry


class SuiteNoisy(Workload):
    """CPU-bound main path: synthetic noise with distractors, no artifacts."""

    name = "suite-noisy"

    def config(self, seed: int) -> RunConfig:
        return noisy_config(seed)


class SuiteCleanArtifacts(Workload):
    """Zero noise, every artifact written to a fresh directory per unit."""

    name = "suite-clean-artifacts"
    writes = "harness.artifacts"
    ARTIFACTS = ("summary.txt", "metrics.jsonl")

    def config(self, seed: int) -> RunConfig:
        return RunConfig(master_seed=seed, repetitions=self.repetitions,
                         output_dir=str(self.fresh_dir("artifacts")))

    def execute(self, config: RunConfig, run_suite: RunSuite):
        return run_suite(config, self.bundle)

    def inspect(self, unit: Unit, result, config: RunConfig) -> None:
        out = Path(config.output_dir)
        unit.files, unit.bytes = tree_size(out)
        for name in self.ARTIFACTS:
            unit.digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if unit.files != 2 * unit.episodes + 3:
            unit.problems.append(f"seed {unit.seed}: {unit.files} artifact files, "
                                 f"expected {2 * unit.episodes + 3}")
        if unit.row["sr_mean"] != 1.0:
            unit.problems.append(f"seed {unit.seed}: zero-noise SR {unit.row['sr_mean']} != 1")

    def cleanup(self, config: RunConfig) -> None:
        shutil.rmtree(config.output_dir, ignore_errors=True)


class Replay(Workload):
    """Replays fixtures recorded (untimed) from the noisy config, 10 seeds a pass."""

    name = "replay"
    repetitions = 1
    seeds_per_pass = 10

    def schedule(self, seed: int) -> tuple[list[list[int]], list[int]]:
        seeds = pool_seeds(seed, self.seeds_per_pass)
        return [seeds], seeds

    def fixtures(self, seed: int) -> Path:
        return self.work_dir / f"fixtures-{seed}"

    def prepare(self, seeds: list[int]) -> None:
        for seed in seeds:
            votetree.record_suite(
                noisy_config(seed, repetitions=1, fixtures_dir=str(self.fixtures(seed))),
                self.bundle,
            )

    def config(self, seed: int) -> RunConfig:
        return RunConfig(master_seed=seed, repetitions=1, provider="replay",
                         fixtures_dir=str(self.fixtures(seed)), output_dir=None)

    def reference(self, seed: int) -> dict:
        # Replay must reproduce the synthetic run it was recorded from.
        result = votetree.run_suite(noisy_config(seed, repetitions=1), self.bundle,
                                    write_outputs=False)
        return {"row": result.row.as_dict()}


class FakeTransport:
    """Stands in for the HTTP endpoint of ``RemoteProvider``.

    Sleeps a fixed time per call, then returns a noisy rendering of the task's
    goal plan that depends only on the request's prompt text and seed.
    """

    _PROG_TASK = re.compile(r"^def (\w+)\(\):\s*\Z", re.MULTILINE)
    _REORDER_TASK = re.compile(r"^Task: (.+)$", re.MULTILINE)

    def __init__(self, bundle: harness.DatasetBundle, latency_s: float):
        self.latency_s = latency_s
        self.calls = 0
        self._by_slug = {instruction_slug(t.task_name): t.goal_plan for t in bundle.tasks}
        self._by_instruction = {t.task_name: t.goal_plan for t in bundle.tasks}

    def _lookup(self, text: str):
        prog = self._PROG_TASK.search(text)
        if prog:
            return self._by_slug[prog.group(1)]
        return self._by_instruction[self._REORDER_TASK.findall(text)[-1]]

    def __call__(self, request: dict) -> str:
        self.calls += 1
        if self.latency_s:
            time.sleep(self.latency_s)
        goal_plan = self._lookup(request["messages"][0]["content"])
        plan = synthesize_noisy_plans(goal_plan, REMOTE_NOISE, 1, request["seed"])[0]
        return render_plan(plan) + "\n"


class RemoteCold(Workload):
    """RemoteProvider over the fake transport, one empty cache per unit."""

    name = "remote-cold"
    writes = "providers.cache"
    repetitions = 1
    cycle = 2

    def __init__(self, bundle, work_dir, expected, latency_s: float = TRANSPORT_LATENCY_S):
        super().__init__(bundle, work_dir, expected)
        self.fake = FakeTransport(bundle, latency_s)
        self.transport = self.fake  # what providers call; a traced pass wraps it

    def trace_wraps(self) -> list[tuple]:
        return [(self, "transport", "providers.transport", None)]

    def config(self, seed: int) -> RunConfig:
        return RunConfig(master_seed=seed, repetitions=1, provider="remote",
                         fixtures_dir=str(self.fresh_dir("cache")), remote_retries=1,
                         output_dir=None)

    def _make_provider(self, config: RunConfig, task, scene) -> RemoteProvider:
        # make_provider cannot pass a transport, so the benchmark builds the provider.
        return RemoteProvider(endpoint="", model="fake", cache_dir=config.fixtures_dir,
                              retries=config.remote_retries, transport=self.transport)

    def execute(self, config: RunConfig, run_suite: RunSuite):
        self.fake.calls = 0
        with patched(harness, "make_provider", self._make_provider):
            return run_suite(config, self.bundle, write_outputs=False)

    def inspect(self, unit: Unit, result, config: RunConfig) -> None:
        unit.files, unit.bytes = tree_size(Path(config.fixtures_dir))
        requested = unit.episodes * (config.prog_num_samples + config.reorder_num_samples)
        if self.fake.calls != requested:
            unit.problems.append(f"seed {unit.seed}: {self.fake.calls} transport calls "
                                 f"for {requested} requested samples")

    def cleanup(self, config: RunConfig) -> None:
        shutil.rmtree(config.fixtures_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SuiteNoisy, SuiteCleanArtifacts, RemoteCold, Replay)}
