"""The identity manifest: one SHA-256 per run of a fixed matrix of runs.

``test_identity.py`` runs the matrix into a temporary directory and compares
each run's digests with ``tests/data/identity.json``.  A change that alters
outputs on purpose regenerates that file and names each changed run:

    PYTHONPATH=src python tests/identity.py

A run's digest is the SHA-256 of its ``sha256sum``-style listing: one
``<file digest>  <path>\\n`` line per file, by sorted path relative to the
run's directory, leaving out ``run_config.json`` (it names paths).  Each
top-level file has its own SHA-256, and each top-level directory the digest
of the listing of the files under it, so a mismatch names the top-level
entries that differ.  The "noisy seed 7 x2" run is the one
``test_noisy_outputs_are_pinned`` and ``test_noisy_episode_files_are_pinned``
pin: they read its ``summary.txt``, ``metrics.jsonl`` and ``episodes``
digests from the manifest, which holds the one copy of them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from votetree import harness
from votetree.executor import MODES, TERMINATIONS
from votetree.harness import RunConfig, load_dataset, record_suite, run_suite
from votetree.providers import RemoteProvider
from votetree.tree import SELECTIONS

from conftest import FakeTransport

MANIFEST = Path(__file__).parent / "data" / "identity.json"
NOISY = dict(drop_prob=0.2, swap_prob=0.1, insert_prob=0.1)


def _listing(root: Path, files: list[Path]) -> str:
    lines = (f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}\n"
             for p in files)
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def digests(root: Path) -> dict:
    """The run digest of ``root`` and one digest per top-level entry."""
    files = sorted((p for p in root.rglob("*") if p.is_file() and p.name != "run_config.json"),
                   key=lambda p: p.relative_to(root).as_posix())
    entries = {}
    for top in sorted({p.relative_to(root).parts[0] for p in files}):
        path = root / top
        entries[top] = (hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else
                        _listing(root, [p for p in files if p.relative_to(root).parts[0] == top]))
    return {"digest": _listing(root, files), "files": entries}


def run_matrix(workdir: Path, bundle=None) -> dict[str, dict]:
    """Run every run of the matrix under ``workdir`` and return their digests by name."""
    bundle = bundle or load_dataset(RunConfig())
    dirs: dict[str, Path] = {}

    def run(name: str, **config) -> None:
        dirs[name] = workdir / f"run{len(dirs)}"
        run_suite(RunConfig(output_dir=str(dirs[name]), **config), bundle)

    run("noisy seed 7 x2", master_seed=7, repetitions=2, **NOISY)
    run("noisy seed 7 x3", master_seed=7, repetitions=3, **NOISY)
    run("clean seed 7 x2", master_seed=7, repetitions=2)
    for mode in MODES:
        for selection in SELECTIONS:
            for termination in TERMINATIONS:
                run(f"{mode} {selection} {termination} seed 11 x2", master_seed=11, repetitions=2,
                    step_limit=30, mode=mode, selection=selection, termination=termination,
                    **NOISY)
    run("drop_prob 1.0 seed 7 x2", master_seed=7, repetitions=2, drop_prob=1.0)

    store = dirs["record store, noisy seed 7 x2"] = workdir / "store"
    record_suite(RunConfig(master_seed=7, repetitions=2, fixtures_dir=str(store), **NOISY), bundle)
    run("replay of the record store", master_seed=7, repetitions=2, provider="replay",
        fixtures_dir=str(store))

    fake = FakeTransport(bundle)

    def make_provider(config, task, scene):
        return RemoteProvider(endpoint="", model="fake", cache_dir=config.fixtures_dir,
                              transport=fake)

    cache = dirs["remote store, seed 4 x2"] = workdir / "cache"
    with mock.patch.object(harness, "make_provider", make_provider):
        run("remote seed 4 x2", master_seed=4, repetitions=2, provider="remote",
            fixtures_dir=str(cache))
    return {name: digests(path) for name, path in dirs.items()}


def mismatches(expected: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """One line per run whose digest differs: its name and its differing top-level entries."""
    lines = []
    for name in sorted(set(expected) | set(got)):
        want, have = expected.get(name), got.get(name)
        if want is None or have is None:
            lines.append(f"{name}: {'not in the manifest' if want is None else 'not run'}")
        elif want["digest"] != have["digest"]:
            tops = sorted(top for top in set(want["files"]) | set(have["files"])
                          if want["files"].get(top) != have["files"].get(top))
            lines.append(f"{name}: {', '.join(tops)} differ")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        manifest = run_matrix(Path(workdir))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(manifest)} runs written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
