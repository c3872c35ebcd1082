"""Prompt construction for the two generation stages.

Stage one turns an instruction into a program-style prompt embedding the
action and object inventories plus in-context example plans; stage two asks
for the pooled unique commands to be reordered into complete plans.  Both
formatters are pure: identical inputs give byte-identical prompt text, and
the text's hash keys replay fixtures and response caches.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .errors import (
    INTEGER_AT_LEAST_1,
    NUMBER_AT_LEAST_0,
    ConfigError,
    DatasetError,
    EmptyCommandPoolError,
    check_value,
    json_document,
)
from .plans import Command

DATA_DIR = Path(__file__).with_name("data")  # prompt examples; what unset run config paths name

PROG = "prog"
REORDER = "reorder"


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.1  # the plan generation stage's defaults: it runs cool and wide
    num_samples: int = 30
    max_length: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        check_value("temperature", self.temperature, NUMBER_AT_LEAST_0)
        check_value("num_samples", self.num_samples, INTEGER_AT_LEAST_1)


@dataclass(frozen=True)
class PromptDocument:
    """A fully rendered prompt: its stage, text and instruction."""

    kind: str
    text: str
    instruction: str

    @cached_property
    def content_hash(self) -> str:
        """Stable identity for fixtures and caches (kind + text), hashed on first read."""
        digest = hashlib.sha256(f"{self.kind}\n{self.text}".encode("utf-8"))
        return digest.hexdigest()[:16]


def instruction_slug(instruction: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", instruction.strip().lower()).strip("_")
    return slug or "task"


@dataclass(frozen=True)
class ExamplePlan:
    """One in-context demonstration: an instruction and its plan lines."""

    instruction: str
    plan: tuple[str, ...]

    @cached_property
    def program(self) -> str:
        """The example's block of a prog prompt: its ``def`` header, one call per plan line."""
        calls = (f"    {_program_call(cmd)}\n" for cmd in self.plan)
        return f"def {instruction_slug(self.instruction)}():\n" + "".join(calls)


@dataclass(frozen=True)
class ReorderExample:
    """A reorder demonstration: scrambled command pool and the solved order."""

    instruction: str
    commands: tuple[str, ...]
    plan: tuple[str, ...]


def format_prog_prompt(
    instruction: str,
    actions: Sequence[str],
    objects: Sequence[str],
    examples: Sequence[ExamplePlan] = (),
) -> PromptDocument:
    """Build the program-style generation prompt.

    The action and object inventories each appear exactly once, sorted; the
    prompt ends with the open ``def`` header for the target instruction so a
    generator completes the body.
    """
    if not actions:
        raise ConfigError("prog prompt needs a non-empty action inventory")
    if not objects:
        raise ConfigError("prog prompt needs a non-empty object inventory")

    action_list = sorted(set(actions))
    object_list = sorted(set(objects))
    lines = [
        "from actions import " + ", ".join(action_list),
        "",
        "objects = [" + ", ".join(f"'{o}'" for o in object_list) + "]",
        "",
    ]
    lines += [ex.program for ex in examples]
    lines.append(f"def {instruction_slug(instruction)}():")
    text = "\n".join(lines) + "\n"
    return PromptDocument(kind=PROG, text=text, instruction=instruction)


def _program_call(command_text: str) -> str:
    """Render ``action(a, b)`` as ``action('a', 'b')`` for the prompt body."""
    cmd = Command.parse(command_text)
    return f"{cmd.action}(" + ", ".join(f"'{a}'" for a in cmd.args) + ")"


def format_reorder_prompt(
    pool: Sequence[Command],
    instruction: str,
    examples: Sequence[ReorderExample] = (),
) -> PromptDocument:
    """Build the reordering prompt over the pooled unique commands.

    Every pool member is listed once in stable sorted order; the prompt asks
    for output as one canonical command per line, which feeds straight back
    into the plan parser.
    """
    if not pool:
        raise EmptyCommandPoolError("cannot build a reorder prompt from an empty command pool")

    lines = [
        "# Reorder the given commands into a plan that completes the task.",
        "# Output one command per line, in execution order.",
        "",
    ]
    for ex in examples:
        lines.append(f"Task: {ex.instruction}")
        lines.append("Commands:")
        lines.extend(f"  {c}" for c in ex.commands)
        lines.append("Plan:")
        lines.extend(f"  {c}" for c in ex.plan)
        lines.append("")
    lines.append(f"Task: {instruction}")
    lines.append("Commands:")
    lines.extend(f"  {form}" for form in sorted(c.canonical_form for c in pool))
    lines.append("Plan:")
    text = "\n".join(lines) + "\n"
    return PromptDocument(kind=REORDER, text=text, instruction=instruction)


# -- bundled defaults ---------------------------------------------------------

_EXAMPLES = DATA_DIR / "prompt_examples.json"


def default_prog_examples() -> list[ExamplePlan]:
    raw = json_document(_EXAMPLES, DatasetError)["prog_examples"]
    return [ExamplePlan(e["instruction"], tuple(e["plan"])) for e in raw]


def default_reorder_examples() -> list[ReorderExample]:
    raw = json_document(_EXAMPLES, DatasetError)["reorder_examples"]
    return [
        ReorderExample(e["instruction"], tuple(e["commands"]), tuple(e["plan"]))
        for e in raw
    ]


def seen_task_names() -> frozenset[str]:
    """Instructions used as in-context examples (excluded from the eval split)."""
    return frozenset(e.instruction for e in default_prog_examples())
