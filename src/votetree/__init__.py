"""Vote-weighted plan trees for household task planning.

The pipeline: sample candidate plans from a pluggable generator, pool the
unique commands, reorder them into fresh plans, aggregate those into a
vote-weighted prefix tree, and execute the tree in a symbolic household
environment with vote-guided selection and failure backtracking.
"""

from .errors import (
    CatalogError,
    ConfigError,
    DatasetError,
    EmptyCommandPoolError,
    NoPlansError,
    ProviderError,
    SceneError,
    TreeLogicError,
    VoteTreeError,
)
from .executor import (
    EpisodeResult,
    ExecutionMode,
    ExecutionTrace,
    StepRecord,
    execute_tree,
    run_episode,
)
from .harness import (
    DatasetBundle,
    RunConfig,
    evaluated_tasks,
    load_dataset,
    plan_diff_report,
    recompute_metrics,
    record_suite,
    run_suite,
)
from .metrics import MetricsRow, compute_exec, compute_gcr, compute_sr, format_table
from .plans import (
    Command,
    Plan,
    UniqueCommandSet,
    extract_unique_commands,
    normalize_command,
    parse_plan_text,
    render_plan,
    split_corpus,
)
from .prompts import (
    PromptDocument,
    SamplingConfig,
    format_prog_prompt,
    format_reorder_prompt,
)
from .providers import (
    NoiseModel,
    RemoteProvider,
    ReplayProvider,
    SyntheticProvider,
    derive_seed,
    synthesize_noisy_plans,
)
from .tree import (
    SelectionStrategy,
    TreeStats,
    VoteTreeNode,
    build_vote_tree,
    remove_child,
    render_outline,
    select_child,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)
from .world import (
    ActionCatalog,
    ExecutionOutcome,
    GoalSpec,
    ObjectInstance,
    Scene,
    StatePredicate,
    Task,
    World,
    WorldState,
    derive_goal_conditions,
    load_scene,
    load_tasks,
    state_diff,
)

__version__ = "0.1.0"
