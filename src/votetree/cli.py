"""Command line entry points.

Subcommands:
    run         full evaluation suite from a run config file
    build-tree  plan corpus -> serialized vote tree
    execute     tree + scene -> execution trace
    metrics     recompute the summary table from persisted artifacts
    diff        side-by-side comparison of two trace files
    record      run the suite to fill the fixture store, writing no artifacts
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diff import plan_diff_report
from .errors import DatasetError, VoteTreeError, json_document, read_text, reading
from .executor import (
    DEFAULT_STEP_LIMIT,
    MODES,
    TERMINATE_CHILDLESS,
    TERMINATIONS,
    WITH_CORRECTION,
    ExecutionMode,
    read_steps,
    run_episode,
    serialize_trace,
)
from .harness import RunConfig, recompute_metrics, record_suite, run_suite
from .metrics import format_table
from .plans import parse_plan_text, split_corpus
from .prompts import DATA_DIR
from .providers import atomic_write, json_text
from .tree import (
    MAX_VOTE,
    SELECTIONS,
    build_vote_tree,
    render_outline,
    tree_from_dict,
    tree_to_dict,
)
from .world import World, load_catalog, load_scene


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    if args.master_seed is not None:
        config = config._replace(master_seed=args.master_seed)
    if args.output_dir:
        config = config._replace(output_dir=args.output_dir)
    result = run_suite(config)
    sys.stdout.write(format_table([result.row]))
    if result.output_dir:
        print(f"artifacts written to {result.output_dir}")
    return 0


def _cmd_build_tree(args: argparse.Namespace) -> int:
    plans = []
    for body in split_corpus(read_text(args.corpus, DatasetError)):
        plan, _ = parse_plan_text(body)
        if plan:
            plans.append(plan)
    if not plans:
        raise DatasetError(f"{args.corpus}: no plan to build a vote tree from")
    root = build_vote_tree(plans)
    with reading(f"{args.corpus}: vote tree", DatasetError):  # a long plan nests it too deeply
        doc = json_text(tree_to_dict(root))
        outline = render_outline(root) if args.outline else None
    if args.out:
        atomic_write(Path(args.out), doc)
        print(f"tree with {len(plans)} plans written to {args.out}")
    else:
        sys.stdout.write(doc)
    if outline is not None:
        print(outline)
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    with reading(args.tree, DatasetError):
        root = tree_from_dict(json_document(args.tree, DatasetError))
    scene = load_scene(args.scene)
    world = World(load_catalog(args.actions or DATA_DIR / "actions.json"), scene.objects)
    mode = ExecutionMode(args.mode, args.selection, args.termination, args.seed)
    trace = run_episode(world, scene.initial_state, root, mode, args.step_limit).trace
    out = json_text(serialize_trace(trace))
    if args.out:
        atomic_write(Path(args.out), out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    row = recompute_metrics(args.results)
    sys.stdout.write(format_table([row]))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    steps_a, steps_b = read_steps(args.trace_a), read_steps(args.trace_b)
    sys.stdout.write(plan_diff_report(steps_a, steps_b, labels=(args.label_a, args.label_b)))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    if args.master_seed is not None:
        config = config._replace(master_seed=args.master_seed)
    result = record_suite(config)
    print(f"recorded {len(result.episodes)} episode(s) under {config.fixtures_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="votetree", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full evaluation suite")
    p.add_argument("--config", required=True)
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("build-tree", help="aggregate a plan corpus into a vote tree")
    p.add_argument("--corpus", required=True, help="plan file or multi-plan document")
    p.add_argument("--out", default=None)
    p.add_argument("--outline", action="store_true", help="also print an indented outline")
    p.set_defaults(func=_cmd_build_tree)

    p = sub.add_parser("execute", help="execute a serialized tree against a scene")
    p.add_argument("--tree", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--actions", default=None, help="action catalog (default: bundled)")
    p.add_argument("--mode", default=WITH_CORRECTION, choices=MODES)
    p.add_argument("--selection", default=MAX_VOTE, choices=SELECTIONS)
    p.add_argument("--termination", default=TERMINATE_CHILDLESS, choices=TERMINATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser("metrics", help="recompute the summary from artifacts")
    p.add_argument("--results", required=True, help="results directory with metrics.jsonl")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("diff", help="compare two execution traces")
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.add_argument("--label-a", default="a")
    p.add_argument("--label-b", default="b")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("record", help="fill the fixture store from a provider")
    p.add_argument("--config", required=True)
    p.add_argument("--master-seed", type=int, default=None)
    p.set_defaults(func=_cmd_record)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VoteTreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
