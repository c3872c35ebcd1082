"""The value contract: a value type is validated when it is built, positionally,
by keyword, by ``_make`` or by ``_replace``, and compares, hashes and orders as
the tuple of its fields."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votetree.errors import ConfigError, DatasetError
from votetree.executor import ExecutionMode
from votetree.harness import RunConfig
from votetree.plans import Command
from votetree.prompts import SamplingConfig
from votetree.providers import NoiseModel
from votetree.world import BINARY_PREDICATES, UNARY_PREDICATES, StatePredicate, Task

# (type, bad fields by keyword, the same fields by position, error type, message)
REFUSALS = [
    (Command, {"action": "", "args": ("x",)}, ("", ("x",)),
     ValueError, "command has an empty action token"),
    (Command, {"action": "find", "args": ("a", "b", "c")}, ("find", ("a", "b", "c")),
     ValueError, "command 'find' needs 1 or 2 arguments, got 3"),
    (StatePredicate, {"predicate": "OPEN", "subject": "fridge", "object": "mug"},
     ("OPEN", "fridge", "mug"), ValueError, "OPEN is unary, got second object 'mug'"),
    (StatePredicate, {"predicate": "INSIDE", "subject": "mug"}, ("INSIDE", "mug"),
     ValueError, "INSIDE is binary and needs a second object"),
    (StatePredicate, {"predicate": "FLYING", "subject": "mug"}, ("FLYING", "mug"),
     ValueError, "unknown predicate token 'FLYING'; expected one of ['CLEAN', 'CLOSED', "
                 "'CLOSE_TO', 'DIRTY', 'FACING', 'HELD_BY_AGENT', 'INSIDE', 'OFF', 'ON', "
                 "'ON_TOP', 'OPEN']"),
    (Task, {"task_name": 5, "scene_id": "scene1", "goal_plan": ()}, (5, "scene1", ()),
     DatasetError, "task_name must be a string, got 5"),
    (Task, {"task_name": "wash mug", "scene_id": None, "goal_plan": ()},
     ("wash mug", None, ()), DatasetError, "scene_id must be a string, got None"),
    (Task, {"task_name": "wash mug", "scene_id": "scene1", "goal_plan": (),
            "goal_conditions": frozenset()}, ("wash mug", "scene1", (), frozenset()),
     DatasetError, "task 'wash mug': goal_conditions must be non-empty"),
    (SamplingConfig, {"temperature": "0.1"}, ("0.1",),
     ConfigError, "temperature must be a number >= 0, got '0.1'"),
    (SamplingConfig, {"num_samples": 2.0}, (0.1, 2.0),
     ConfigError, "num_samples must be an integer >= 1, got 2.0"),
    (ExecutionMode, {"kind": "bogus"}, ("bogus",),
     ConfigError, "unknown mode 'bogus'; expected one of with_correction, no_correction"),
    (ExecutionMode, {"selection": "min_vote"}, ("with_correction", "min_vote"),
     ConfigError, "unknown selection 'min_vote'; expected one of max_vote, random"),
    (ExecutionMode, {"termination": "never"}, ("with_correction", "max_vote", "never"),
     ConfigError, "unknown termination 'never'; expected one of childless_success, "
                  "end_marker_or_childless"),
    (NoiseModel, {"swap_prob": 1.5}, (0.0, 1.5),
     ConfigError, "swap_prob must be a number in [0, 1], got 1.5"),
    (NoiseModel, {"insert_prob": "0"}, (0.0, 0.0, "0"),
     ConfigError, "insert_prob must be a number in [0, 1], got '0'"),
    (RunConfig, {"dataset": 5}, (5,), ConfigError, "dataset must be a string or null, got 5"),
    (RunConfig, {"provider": "replay"}, (None, None, None, "replay"),
     ConfigError, "replay provider needs fixtures_dir"),
    (RunConfig, {"provider": "oracle"}, (None, None, None, "oracle"),
     ConfigError, "unknown provider 'oracle'; expected one of synthetic, replay, remote"),
    (RunConfig, {"drop_prob": -0.5}, (None, None, None, "synthetic", None, "", "", "x", 60.0,
                                      3, 0.1, 30, 0.65, 20, 80, -0.5),
     ConfigError, "drop_prob must be a number in [0, 1], got -0.5"),
    (RunConfig, {"repetitions": 0}, (None, None, None, "synthetic", None, "", "", "x", 60.0, 3,
                                     0.1, 30, 0.65, 20, 80, 0.0, 0.0, 0.0, "with_correction",
                                     "max_vote", "childless_success", 0),
     ConfigError, "repetitions must be an integer >= 1, got 0"),
    *((SamplingConfig, {"max_length": value}, (0.1, 30, value),
       ConfigError, f"max_length must be an integer >= 1, got {value!r}")
      for value in (0, None, True, 2.5, "80")),
    *((SamplingConfig, {"seed": value}, (0.1, 30, 80, value),
       ConfigError, f"seed must be an integer, got {value!r}")
      for value in ("7", 2.5, None)),
]

# A valid value of each type, which ``_replace`` turns into a row's bad one.
VALID = {Command: Command("find", ("mug",)), StatePredicate: StatePredicate("OPEN", "fridge"),
         Task: Task("wash mug", "scene1", ()), SamplingConfig: SamplingConfig(),
         ExecutionMode: ExecutionMode(), NoiseModel: NoiseModel(), RunConfig: RunConfig()}


@pytest.mark.parametrize("kind, by_keyword, by_position, error, message", REFUSALS,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(REFUSALS)])
def test_a_bad_value_is_refused_by_keyword_and_by_position(kind, by_keyword, by_position,
                                                           error, message):
    for build in (lambda: kind(**by_keyword), lambda: kind(*by_position),
                  lambda: kind._make(by_position), lambda: VALID[kind]._replace(**by_keyword)):
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message


tokens = st.text("abc_", min_size=1, max_size=3)
commands = st.tuples(st.sampled_from(["find", "grab", "putin"]),
                     st.lists(tokens, min_size=1, max_size=2).map(tuple)).map(lambda t: Command(*t))
predicates = st.one_of(
    st.tuples(st.sampled_from(sorted(UNARY_PREDICATES)), tokens),
    st.tuples(st.sampled_from(sorted(BINARY_PREDICATES)), tokens, tokens),
).map(lambda t: StatePredicate(*t))


def _fields(value) -> tuple:
    """The tuple of a Command's or StatePredicate's fields, in declaration order."""
    if isinstance(value, Command):
        return value.action, value.args
    return value.predicate, value.subject, value.object


@pytest.mark.parametrize("values", [commands, predicates], ids=["Command", "StatePredicate"])
@given(data=st.data())
def test_a_value_compares_hashes_and_sorts_as_its_fields(values, data):
    a, b = data.draw(values), data.draw(values)
    fa, fb = _fields(a), _fields(b)
    assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (
        fa == fb, fa != fb, fa < fb, fa <= fb, fa > fb, fa >= fb)
    assert hash(a) == hash(fa)
    batch = data.draw(st.lists(values, max_size=6))
    assert [_fields(v) for v in sorted(batch)] == sorted(map(_fields, batch))
