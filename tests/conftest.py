import os
import re
import threading

import pytest
from hypothesis import settings

from votetree.harness import RunConfig, load_dataset
from votetree.plans import Command, Plan, render_plan
from votetree.prompts import instruction_slug
from votetree.providers import NoiseModel, synthesize_noisy_plans
from votetree.tree import build_vote_tree
from votetree.world import World

# HYPOTHESIS_PROFILE=ci draws the same examples on every run; local runs stay randomized.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def bundle():
    return load_dataset(RunConfig())


@pytest.fixture(scope="session")
def scene1(bundle):
    return bundle.scenes["scene1"]


@pytest.fixture(scope="session")
def world1(bundle, scene1):
    return World(bundle.catalog, scene1.objects)


def cmd(text: str) -> Command:
    return Command.parse(text)


def plan_of(*texts: str) -> Plan:
    return Plan(tuple(Command.parse(t) for t in texts))


@pytest.fixture
def worked_tree():
    """The worked aggregation example: plans [[a,b], [a,c], [a,b]]."""
    plans = [
        plan_of("a(x)", "b(x)"),
        plan_of("a(x)", "c(x)"),
        plan_of("a(x)", "b(x)"),
    ]
    return build_vote_tree(plans)


class FakeTransport:
    """A remote endpoint: a noisy rendering of the prompted task's goal plan,
    chosen by the request's prompt text and seed alone."""

    def __init__(self, bundle):
        self.calls = 0
        self.lock = threading.Lock()
        self.by_slug = {instruction_slug(t.task_name): t.task_name for t in bundle.tasks}
        self.by_name = {t.task_name: t.goal_plan for t in bundle.tasks}

    def task_of(self, request: dict) -> str:
        """The name of the task a request prompts for."""
        text = request["messages"][0]["content"]
        prog = re.search(r"^def (\w+)\(\):\s*\Z", text, re.MULTILINE)
        if prog:
            return self.by_slug[prog.group(1)]
        return re.findall(r"^Task: (.+)$", text, re.MULTILINE)[-1]

    def __call__(self, request: dict) -> str:
        with self.lock:
            self.calls += 1
        goal_plan = self.by_name[self.task_of(request)]
        noise = NoiseModel(drop_prob=0.2, swap_prob=0.1)
        return render_plan(synthesize_noisy_plans(goal_plan, noise, 1, request["seed"])[0]) + "\n"
