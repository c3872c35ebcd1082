"""Plan generators behind one interface.

Three implementations of the generation contract (prompt + sampling config in,
exactly ``num_samples`` raw plan texts out):

* ``ReplayProvider`` returns recorded samples keyed by prompt content hash,
  for offline reproducible runs.
* ``SyntheticProvider`` perturbs a known-good seed plan with seeded
  drop/swap/insert noise, emulating generator sample diversity.
* ``RemoteProvider`` calls an HTTP chat-completions style endpoint, up to
  ``MAX_INFLIGHT`` requests at a time, and caches every response on disk; a
  cache directory doubles as a replay fixture tree.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .errors import ConfigError, ProviderError
from .plans import Command, Plan, render_plan
from .prompts import PromptDocument, SamplingConfig


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary parts (platform independent)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class PlanGenerator(Protocol):
    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        """Return exactly ``config.num_samples`` raw plan texts or raise."""
        ...


# -- replay -------------------------------------------------------------------

class ReplayProvider:
    """Replays recorded samples from ``<root>/<prompt-hash>/<stage>/<k>.txt``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        stage_dir = self.root / prompt.content_hash / prompt.kind
        texts = []
        for k in range(config.num_samples):
            path = stage_dir / f"{k}.txt"
            if not path.exists():
                raise ProviderError(
                    f"replay fixture missing: {path} "
                    f"(prompt hash {prompt.content_hash}, stage {prompt.kind})"
                )
            texts.append(path.read_text(encoding="utf-8"))
        return texts


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by rename; the parent directory must exist."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def record_fixtures(
    provider: PlanGenerator,
    prompt: PromptDocument,
    config: SamplingConfig,
    root: str | Path,
) -> Path:
    """Run ``provider`` once and persist its samples as a replay fixture.

    Writes ``<root>/<hash>/<stage>/<k>.txt`` plus a manifest recording the
    sampling config. Returns the stage directory.
    """
    texts = provider.generate(prompt, config)
    stage_dir = Path(root) / prompt.content_hash / prompt.kind
    stage_dir.mkdir(parents=True, exist_ok=True)
    for k, text in enumerate(texts):
        _atomic_write(stage_dir / f"{k}.txt", text)
    _write_manifest(stage_dir, prompt, config, getattr(provider, "model", None))
    return stage_dir


def _write_manifest(stage_dir: Path, prompt: PromptDocument, config: SamplingConfig,
                    model: str | None) -> None:
    """Record what the samples in ``stage_dir`` were drawn with (and by which
    model, when the generator has one)."""
    manifest = {
        "instruction": prompt.instruction,
        "stage": prompt.kind,
        "prompt_hash": prompt.content_hash,
        "num_samples": config.num_samples,
        "temperature": config.temperature,
        "seed": config.seed,
    }
    if model is not None:
        manifest["model"] = model
    _atomic_write(stage_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# -- synthetic noise model ----------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-position perturbation probabilities plus an insertion pool."""

    drop_prob: float = 0.0
    swap_prob: float = 0.0
    insert_prob: float = 0.0
    distractor_pool: tuple[Command, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "swap_prob", "insert_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")


def _perturb(commands: Sequence[Command], noise: NoiseModel, rng: random.Random) -> list[Command]:
    kept = [c for c in commands if rng.random() >= noise.drop_prob]
    for i in range(len(kept) - 1):
        if rng.random() < noise.swap_prob:
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
    if noise.insert_prob > 0.0 and noise.distractor_pool:
        out: list[Command] = []
        for c in kept:
            if rng.random() < noise.insert_prob:
                out.append(rng.choice(noise.distractor_pool))
            out.append(c)
        if rng.random() < noise.insert_prob:
            out.append(rng.choice(noise.distractor_pool))
        kept = out
    return kept


def synthesize_noisy_plans(
    seed_plan: Plan,
    noise: NoiseModel,
    num_samples: int,
    seed: int,
) -> list[Plan]:
    """Draw ``num_samples`` independent perturbations of ``seed_plan``.

    Each sample applies, per position: drop with ``drop_prob``, an adjacent
    swap with ``swap_prob``, and a distractor insertion with ``insert_prob``.
    Deterministic given ``seed``; sample k depends only on (seed, k).
    """
    samples = []
    for k in range(num_samples):
        rng = random.Random(derive_seed(seed, k))
        commands = _perturb(seed_plan.commands, noise, rng)
        samples.append(Plan(tuple(commands), provenance="generated", sample_index=k))
    return samples


class SyntheticProvider:
    """Emits noisy renderings of a known-good seed plan as raw plan texts."""

    def __init__(self, seed_plan: Plan, noise: NoiseModel = NoiseModel()):
        self.seed_plan = seed_plan
        self.noise = noise

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        texts = []
        prompt_hash = prompt.content_hash
        for k in range(config.num_samples):
            # Per-call randomness comes from (seed, prompt hash, k), so
            # concurrent generate() calls cannot change outputs.
            rng = random.Random(derive_seed(config.seed, prompt_hash, k))
            commands = _perturb(self.seed_plan.commands, self.noise, rng)
            if config.max_length:
                commands = commands[: config.max_length]
            texts.append(render_plan(Plan(tuple(commands), sample_index=k)) + "\n")
        return texts


# -- remote -------------------------------------------------------------------

class _BadResponse(ProviderError):
    """A response no retry can fix: its body is not JSON or has the wrong shape."""


def _http_transport(request: dict, endpoint: str, api_key: str, timeout: float) -> str:
    payload = json.dumps(request).encode("utf-8")
    req = urllib.request.Request(
        endpoint,
        data=payload,
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {api_key}",
        },
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        raw = resp.read()
    try:
        content = json.loads(raw.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise _BadResponse(f"unexpected response body: {raw[:200]!r}") from exc
    if not isinstance(content, str):
        raise _BadResponse(f"unexpected response body: {raw[:200]!r}")
    return content


def _is_fatal(exc: Exception) -> bool:
    """A remote failure that retrying cannot fix: a malformed response, or
    HTTP 4xx other than 408 (request timeout) and 429 (rate limited)."""
    if isinstance(exc, _BadResponse):
        return True
    return (isinstance(exc, urllib.error.HTTPError) and 400 <= exc.code < 500
            and exc.code not in (408, 429))


MAX_INFLIGHT = 8
"""Most requests ``RemoteProvider`` keeps in flight for one prompt."""


class RemoteProvider:
    """Chat-completions style HTTP provider with an on-disk response cache.

    Every sample is cached under ``<cache_dir>/<prompt-hash>/<stage>/<k>.txt``
    (atomic write-then-rename), so a finished remote run can be replayed
    offline by pointing a ReplayProvider at the cache directory.  The manifest
    beside the samples is written before the first request, so samples left
    by a run that failed partway are never served under other settings.

    The samples a prompt still lacks are requested concurrently, at most
    ``MAX_INFLIGHT`` at a time, so an injected ``transport`` is called from
    worker threads.  Sample k's request and cache file depend on k only, and
    results are placed by k: texts and cache bytes do not depend on the order
    in which responses arrive.

    Timeouts, connection errors, HTTP 5xx, 408 and 429 are retried with
    backoff; missing credentials, other HTTP 4xx and malformed responses fail
    at once.  After the first failure no further request is sent, the ones in
    flight finish, and the error of the lowest failing sample is raised.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        cache_dir: str | Path,
        api_key_env: str = "VOTETREE_API_KEY",
        timeout: float = 60.0,
        retries: int = 3,
        transport: Callable[[dict], str] | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.cache_dir = Path(cache_dir)
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self._transport = transport

    def _sender(self) -> Callable[[dict], str]:
        """The injected transport, or HTTP with the API key from the environment."""
        if self._transport is not None:
            return self._transport
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise ProviderError(f"remote provider needs credentials in ${self.api_key_env}")
        return functools.partial(_http_transport, endpoint=self.endpoint, api_key=api_key,
                                 timeout=self.timeout)

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        stage_dir = self.cache_dir / prompt.content_hash / prompt.kind
        self._check_manifest(stage_dir, config)
        texts: list[str | None] = []
        for k in range(config.num_samples):
            cached = stage_dir / f"{k}.txt"
            texts.append(cached.read_text(encoding="utf-8") if cached.exists() else None)
        missing = [k for k, text in enumerate(texts) if text is None]
        send = self._sender() if missing else None
        if not (stage_dir / "manifest.json").exists():
            stage_dir.mkdir(parents=True, exist_ok=True)
            _write_manifest(stage_dir, prompt, config, self.model)
        if missing:
            self._fetch_missing(send, prompt, config, stage_dir, missing, texts)
        return texts

    def _fetch_missing(self, send: Callable[[dict], str], prompt: PromptDocument,
                       config: SamplingConfig, stage_dir: Path, missing: list[int],
                       texts: list[str | None]) -> None:
        """Request and cache sample k for every k in ``missing``, storing it in ``texts[k]``."""
        failed = threading.Event()

        def fetch(k: int) -> str | None:
            if failed.is_set():  # dequeued after a failure: send nothing
                return None
            request = {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt.text}],
                "temperature": config.temperature,
                "max_tokens": 16 * config.max_length,
                "seed": derive_seed(config.seed, k) % (2**31),
                "n": 1,
            }
            try:
                text = self._call_with_retries(send, request)
                _atomic_write(stage_dir / f"{k}.txt", text)
            except BaseException:
                failed.set()
                raise
            return text

        pool = ThreadPoolExecutor(max_workers=min(MAX_INFLIGHT, len(missing)))
        try:
            futures = [pool.submit(fetch, k) for k in missing]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        for future in futures:  # k order: the lowest failing k is raised
            if not future.cancelled() and future.exception() is not None:
                raise future.exception()
        for k, future in zip(missing, futures):
            texts[k] = future.result()

    def _check_manifest(self, stage_dir: Path, config: SamplingConfig) -> None:
        """Cache entries are keyed by prompt hash AND sampling config: refuse
        to serve samples recorded under different settings or by another model."""
        manifest_path = stage_dir / "manifest.json"
        if not manifest_path.exists():
            return
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded = (manifest.get("temperature"), manifest.get("seed"))
        requested = (config.temperature, config.seed)
        if recorded != requested:
            raise ProviderError(
                f"cache at {stage_dir} was recorded with (temperature, seed)="
                f"{recorded}, requested {requested}; clear it or use another cache_dir"
            )
        model = manifest.get("model")
        if model is not None and model != self.model:
            raise ProviderError(
                f"cache at {stage_dir} was recorded by model {model!r}, requested "
                f"{self.model!r}; clear it or use another cache_dir"
            )

    def _call_with_retries(self, send: Callable[[dict], str], request: dict) -> str:
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                return send(request)
            except (urllib.error.URLError, TimeoutError, ProviderError) as exc:
                if _is_fatal(exc):
                    raise ProviderError(f"remote call failed, not retried: {exc}") from exc
                last = exc
            if attempt + 1 < self.retries:
                time.sleep(min(2.0**attempt, 8.0))
        raise ProviderError(f"remote call failed after {self.retries} attempts: {last}")
