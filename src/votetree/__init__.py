"""Vote-weighted plan trees for household task planning.

The pipeline: sample candidate plans from a pluggable generator, pool the
unique commands, reorder them into fresh plans, aggregate those into a
vote-weighted prefix tree, and execute the tree in a symbolic household
environment with vote-guided selection and failure backtracking.

The top level holds what the demos, the README quickstart and the benchmark
use; everything else is imported from its module.
"""

from .executor import ExecutionMode, execute_tree
from .harness import RunConfig, evaluated_tasks, load_dataset, record_suite, run_suite
from .metrics import format_table
from .plans import Command, extract_unique_commands, parse_plan_text, render_plan
from .providers import (
    NoiseModel,
    RemoteProvider,
    ReplayProvider,
    SyntheticProvider,
    synthesize_noisy_plans,
)
from .tree import build_vote_tree, render_outline, tree_stats, tree_to_dict
from .world import World, state_diff

__version__ = "0.1.0"
