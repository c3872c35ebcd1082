import os

import pytest
from hypothesis import settings

from votetree.harness import RunConfig, load_dataset
from votetree.plans import Command, Plan
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


def plan_of(*texts: str, sample_index: int = 0) -> Plan:
    return Plan(tuple(Command.parse(t) for t in texts), sample_index)


@pytest.fixture
def worked_tree():
    """The worked aggregation example: plans [[a,b], [a,c], [a,b]]."""
    plans = [
        plan_of("a(x)", "b(x)", sample_index=0),
        plan_of("a(x)", "c(x)", sample_index=1),
        plan_of("a(x)", "b(x)", sample_index=2),
    ]
    return build_vote_tree(plans)
