"""Prompt construction for the two generation stages.

Stage one turns an instruction into a program-style prompt embedding the
action and object inventories plus in-context example plans; stage two asks
for the pooled unique commands to be reordered into complete plans.  Both
formatters are pure: identical inputs give byte-identical prompt text, and
the text's hash keys replay fixtures and response caches.
"""

import re
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    INTEGER_AT_LEAST_1,
    NUMBER_AT_LEAST_0,
    ConfigError,
    DatasetError,
    EmptyCommandPoolError,
    check_value,
    checked,
    json_document,
)
from .plans import Command

DATA_DIR = Path(__file__).with_name("data")  # prompt examples; what unset run config paths name

PROG = "prog"
REORDER = "reorder"


@checked
class SamplingConfig(NamedTuple):
    temperature: float = 0.1  # the plan generation stage's defaults: it runs cool and wide
    num_samples: int = 30
    max_length: int = 80
    seed: int = 0

    def _check(self) -> None:
        check_value("temperature", self.temperature, NUMBER_AT_LEAST_0)
        check_value("num_samples", self.num_samples, INTEGER_AT_LEAST_1)


class _PromptDocument(NamedTuple):
    kind: str
    text: str
    instruction: str


class PromptDocument(_PromptDocument):
    """A fully rendered prompt: its stage, text and instruction."""

    # No ``__slots__ = ()`` here: cached_property keeps its value in the instance dict.
    @cached_property
    def content_hash(self) -> str:
        """Stable identity for fixtures and caches (kind + text), hashed on first read."""
        import hashlib  # here: loading a dataset does not pay for the import

        digest = hashlib.sha256(f"{self.kind}\n{self.text}".encode("utf-8"))
        return digest.hexdigest()[:16]


def instruction_slug(instruction: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", instruction.strip().lower()).strip("_")
    return slug or "task"


def format_prog_prompt(
    instruction: str,
    actions: Sequence[str],
    objects: Sequence[str],
    examples: str = "",
) -> PromptDocument:
    """Build the program-style generation prompt.

    The action and object inventories each appear exactly once, sorted, then
    the text of the in-context examples (``default_prog_examples``); the
    prompt ends with the open ``def`` header for the target instruction so a
    generator completes the body.
    """
    if not actions:
        raise ConfigError("prog prompt needs a non-empty action inventory")
    if not objects:
        raise ConfigError("prog prompt needs a non-empty object inventory")

    action_list = sorted(set(actions))
    object_list = sorted(set(objects))
    text = "from actions import " + ", ".join(action_list) + "\n\n"
    text += "objects = [" + ", ".join(f"'{o}'" for o in object_list) + "]\n\n"
    text += examples + f"def {instruction_slug(instruction)}():\n"
    return PromptDocument(kind=PROG, text=text, instruction=instruction)


def _program_call(command_text: str) -> str:
    """Render ``action(a, b)`` as ``action('a', 'b')`` for the prompt body."""
    cmd = Command.parse(command_text)
    return f"{cmd.action}(" + ", ".join(f"'{a}'" for a in cmd.args) + ")"


def format_reorder_prompt(
    pool: Sequence[Command],
    instruction: str,
    examples: str = "",
) -> PromptDocument:
    """Build the reordering prompt over the pooled unique commands.

    After the text of the in-context examples (``default_reorder_examples``),
    every pool member is listed once in stable sorted order; the prompt asks
    for output as one canonical command per line, which feeds straight back
    into the plan parser.
    """
    if not pool:
        raise EmptyCommandPoolError("cannot build a reorder prompt from an empty command pool")

    text = "# Reorder the given commands into a plan that completes the task.\n"
    text += "# Output one command per line, in execution order.\n\n"
    text += examples + f"Task: {instruction}\nCommands:\n"
    for form in sorted(c.canonical_form for c in pool):
        text += f"  {form}\n"
    text += "Plan:\n"
    return PromptDocument(kind=REORDER, text=text, instruction=instruction)


# -- bundled defaults ---------------------------------------------------------

_EXAMPLES = DATA_DIR / "prompt_examples.json"


def default_prog_examples() -> str:
    """The prog prompt's in-context examples: each one's ``def`` header, one
    call per plan line, then a blank line."""
    text = ""
    for example in json_document(_EXAMPLES, DatasetError)["prog_examples"]:
        text += f"def {instruction_slug(example['instruction'])}():\n"
        for command in example["plan"]:
            text += f"    {_program_call(command)}\n"
        text += "\n"
    return text


def default_reorder_examples() -> str:
    """The reorder prompt's in-context examples: each one's task, scrambled
    commands and solved plan, then a blank line."""
    text = ""
    for example in json_document(_EXAMPLES, DatasetError)["reorder_examples"]:
        text += f"Task: {example['instruction']}\nCommands:\n"
        for command in example["commands"]:
            text += f"  {command}\n"
        text += "Plan:\n"
        for command in example["plan"]:
            text += f"  {command}\n"
        text += "\n"
    return text


def seen_task_names() -> frozenset[str]:
    """Instructions used as in-context examples (excluded from the eval split)."""
    examples = json_document(_EXAMPLES, DatasetError)["prog_examples"]
    return frozenset(example["instruction"] for example in examples)
