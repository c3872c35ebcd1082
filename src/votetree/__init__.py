"""Vote-weighted plan trees for household task planning.

The pipeline: sample candidate plans from a pluggable generator, pool the
unique commands, reorder them into fresh plans, aggregate those into a
vote-weighted prefix tree, and execute the tree in a symbolic household
environment with vote-guided selection and failure backtracking.

The top level holds what the demos, the README quickstart and the benchmark
use; everything else is imported from its module.  Each name loads its module
on first use (PEP 562), so ``load_dataset()`` does not load the run machinery.
"""

import importlib

# Each exported name by the module that defines it.
_EXPORTS = {
    "executor": ("ExecutionMode", "execute_tree"),
    "harness": ("RunConfig", "evaluated_tasks", "record_suite", "run_suite"),
    "metrics": ("format_table",),
    "plans": ("Command", "extract_unique_commands", "parse_plan_text", "render_plan"),
    "providers": ("NoiseModel", "RemoteProvider", "ReplayProvider", "SyntheticProvider",
                  "synthesize_noisy_plans"),
    "tree": ("build_vote_tree", "render_outline", "tree_stats", "tree_to_dict"),
    "world": ("World", "load_dataset", "state_diff"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "diff", "errors", "prompts", *_EXPORTS)

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
