import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votetree.errors import ConfigError, EmptyCommandPoolError
from votetree.harness import RunConfig
from votetree.plans import Command, extract_unique_commands
from votetree.prompts import (
    SamplingConfig,
    default_prog_examples,
    default_reorder_examples,
    format_prog_prompt,
    format_reorder_prompt,
    instruction_slug,
    seen_task_names,
)

from conftest import plan_of

DATA = Path(__file__).parent / "data" / "golden_prompts"

# Few actions and arguments, so that drawn plans repeat commands.  The
# arguments ("x,y",) and ("x", "y") give one canonical form, ``find(x,y)``
# say, so one form can come from unequal commands.
COMMANDS = st.builds(
    Command, st.sampled_from(["find", "grab", "putin"]),
    st.lists(st.sampled_from(["x", "y", "x,y"]), min_size=1, max_size=2).map(tuple))
PLANS = st.lists(st.lists(COMMANDS, max_size=5).map(tuple), max_size=6)


def prog_prompt(bundle, instruction="microwave salmon"):
    scene = bundle.scenes["scene1"]
    return format_prog_prompt(
        instruction, bundle.catalog.action_names, sorted(scene.objects), default_prog_examples()
    )


class TestProgPrompt:
    def test_byte_identical_for_identical_inputs(self, bundle):
        assert prog_prompt(bundle).text == prog_prompt(bundle).text

    def test_contains_target_def_header(self, bundle):
        assert "def microwave_salmon():" in prog_prompt(bundle).text

    def test_every_action_exactly_once_in_listing(self, bundle):
        text = prog_prompt(bundle).text
        import_line = next(l for l in text.splitlines() if l.startswith("from actions import "))
        tokens = import_line[len("from actions import "):].split(", ")
        assert sorted(tokens) == bundle.catalog.action_names
        assert len(tokens) == len(set(tokens)) == 28

    def test_every_object_exactly_once_in_listing(self, bundle):
        text = prog_prompt(bundle).text
        objects_line = next(l for l in text.splitlines() if l.startswith("objects = ["))
        tokens = re.findall(r"'([^']+)'", objects_line)
        assert sorted(tokens) == sorted(bundle.scenes["scene1"].objects)
        assert len(tokens) == len(set(tokens))

    def test_embeds_four_default_examples(self, bundle):
        text = prog_prompt(bundle).text
        assert len(default_prog_examples()) == 4
        assert text.count("def ") == 5  # 4 examples + the target header

    def test_golden_file(self, bundle):
        golden = (DATA / "prog_microwave_salmon.txt").read_text(encoding="utf-8")
        assert prog_prompt(bundle).text == golden

    def test_empty_inventories_rejected(self, bundle):
        with pytest.raises(ConfigError):
            format_prog_prompt("x", [], ["apple"])
        with pytest.raises(ConfigError):
            format_prog_prompt("x", ["find"], [])

    def test_hash_tracks_content(self, bundle):
        a = prog_prompt(bundle, "microwave salmon")
        b = prog_prompt(bundle, "microwave the salmon")
        assert a.content_hash != b.content_hash
        assert a.content_hash == prog_prompt(bundle, "microwave salmon").content_hash


class TestReorderPrompt:
    @pytest.fixture
    def pool(self):
        return extract_unique_commands(
            [plan_of("grab(salmon)", "find(salmon)", "putin(salmon,microwave)")]
        )

    def test_lists_pool_sorted(self, pool):
        doc = format_reorder_prompt(pool, "microwave salmon")
        section = doc.text.split("Commands:")[-1]
        listed = [l.strip() for l in section.splitlines() if l.strip() and l.strip() != "Plan:"]
        assert listed == sorted([c.canonical_form for c in pool])

    def test_two_commands_sorted_order(self):
        pool = extract_unique_commands([plan_of("grab(salmon)", "find(salmon)")])
        doc = format_reorder_prompt(pool, "x")
        assert doc.text.index("find(salmon)") < doc.text.index("grab(salmon)")

    def test_determinism(self, pool):
        a = format_reorder_prompt(pool, "microwave salmon", default_reorder_examples())
        b = format_reorder_prompt(pool, "microwave salmon", default_reorder_examples())
        assert a.text == b.text

    @given(plans=PLANS)
    def test_the_prompt_lists_the_pooled_forms_of_any_plans(self, plans):
        """The pool holds the sorted distinct canonical forms of the plans,
        each with the first command seen with it, whatever the plans' order
        and repetition; the reorder prompt lists exactly those forms under its
        last ``Commands:``."""
        first: dict[str, Command] = {}
        for command in (c for plan in plans for c in plan):
            first.setdefault(command.canonical_form, command)
        if not first:
            with pytest.raises(EmptyCommandPoolError):
                extract_unique_commands(plans)
            return
        pool = extract_unique_commands(plans)
        assert [c.canonical_form for c in pool] == sorted(first)
        assert all(c is first[c.canonical_form] for c in pool)
        again = extract_unique_commands(plans[::-1] + plans)
        assert [c.canonical_form for c in again] == [c.canonical_form for c in pool]
        text = format_reorder_prompt(pool, "task", default_reorder_examples()).text
        listed = text.rsplit("Commands:\n", 1)[1].split("Plan:\n", 1)[0]
        assert listed.splitlines() == [f"  {form}" for form in sorted(first)]

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyCommandPoolError):
            format_reorder_prompt((), "x")

    def test_golden_file(self, bundle):
        apple = next(t for t in bundle.tasks if t.task_name == "put apple in fridge")
        pool = extract_unique_commands([plan_of(*[c.canonical_form for c in apple.goal_plan])])
        doc = format_reorder_prompt(pool, "put apple in fridge", default_reorder_examples())
        golden = (DATA / "reorder_put_apple_in_fridge.txt").read_text(encoding="utf-8")
        assert doc.text == golden


class TestSamplingDefaults:
    def test_prog_stage_defaults(self):
        cfg = RunConfig()
        assert (cfg.prog_temperature, cfg.prog_num_samples) == (0.1, 30)

    def test_reorder_stage_defaults(self):
        cfg = RunConfig()
        assert (cfg.reorder_temperature, cfg.reorder_num_samples) == (0.65, 20)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SamplingConfig(temperature=-0.1)
        with pytest.raises(ConfigError):
            SamplingConfig(num_samples=0)

    @pytest.mark.parametrize("field, value, message", [
        ("temperature", "0.1", "temperature must be a number >= 0, got '0.1'"),
        ("temperature", True, "temperature must be a number >= 0, got True"),
        ("num_samples", 2.5, "num_samples must be an integer >= 1, got 2.5"),
        ("num_samples", True, "num_samples must be an integer >= 1, got True"),
        ("num_samples", "3", "num_samples must be an integer >= 1, got '3'"),
    ])
    def test_wrong_types_are_config_errors(self, field, value, message):
        with pytest.raises(ConfigError) as raised:
            SamplingConfig(**{field: value})
        assert str(raised.value) == message


class TestSeenSplit:
    def test_seen_tasks_are_the_four_examples(self):
        assert seen_task_names() == {
            "put the wine glass in the kitchen cabinet",
            "wash mug",
            "wash clothes",
            "put apple in fridge",
        }

    def test_slug(self):
        assert instruction_slug("Microwave Salmon!") == "microwave_salmon"
        assert instruction_slug("  ") == "task"
