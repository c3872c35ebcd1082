"""Plan generators behind one interface, and the fixture store they share.

Implementations of the generation contract (prompt + sampling config in,
exactly ``num_samples`` raw plan texts out):

* ``ReplayProvider`` serves samples recorded in a fixture store, for offline
  reproducible runs.
* ``SyntheticProvider`` perturbs a known-good seed plan with seeded
  drop/swap/insert noise, emulating generator sample diversity; given a
  fixture store, it reads through it, recording as it goes.
* ``RemoteProvider`` calls an HTTP chat-completions style endpoint and keeps
  every response in a fixture store.

``read_through`` is the store they share, keyed by (prompt hash, stage, seed).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import queue
import random
import threading
import time
import urllib.error
import urllib.parse
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence

from .errors import LIST, PROBABILITY, ProviderError, check_value, checked, json_document, reading
from .plans import Command, Plan, render_plan
from .prompts import PromptDocument, SamplingConfig


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary parts (platform independent): the
    8-byte blake2b of ``"<part>:<part>:...:<part>"``, big-endian, shifted right by one."""
    return seeds_after(*parts[:-1])(parts[-1])


def seeds_after(*prefix: object) -> Callable[[object], int]:
    """``derive_seed(*prefix, last)`` as a function of ``last``; ``prefix`` is hashed once."""
    head = hashlib.blake2b("".join(f"{p!s}:" for p in prefix).encode("utf-8"), digest_size=8)

    def seed(last: object) -> int:
        digest = head.copy()
        digest.update(str(last).encode("utf-8"))
        return int.from_bytes(digest.digest(), "big") >> 1

    return seed


class PlanGenerator(Protocol):
    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        """Return exactly ``config.num_samples`` raw plan texts or raise."""
        ...


# -- request pool ---------------------------------------------------------------

def _fill(draw: Callable[[int], object], missing: Sequence[int], samples: list,
          requests: RequestPool | None) -> None:
    """Fill ``samples[k]`` with ``draw(k)`` for each k of ``missing``, or raise
    the exception of the lowest failing draw once no draw is running.

    Draw i (of ``missing[i]``) is skipped once a draw with a lower index has
    failed, or once the waiting thread is interrupted; every draw below the
    lowest failure runs.  Without ``requests`` the draws run in the calling
    thread in order, so they stop at the first failure; with a pool they go
    on its queue together and the calling thread waits once.
    """
    lock, done = threading.Lock(), threading.Event()
    lowest = len(missing)  # the lowest failing draw's index, or -1 once interrupted
    failure: BaseException | None = None
    ended = 0

    def run(i: int) -> None:
        nonlocal lowest, failure, ended
        if i < lowest:
            try:
                samples[missing[i]] = draw(missing[i])
            except BaseException as exc:  # the waiter's to raise: a pool thread never dies
                with lock:
                    if i < lowest:
                        lowest, failure = i, exc
        with lock:
            ended += 1
            if ended == len(missing):
                done.set()

    if requests is None:
        for i in range(len(missing)):
            run(i)
    else:
        requests.put_all(run, len(missing))
        try:
            done.wait()
        except BaseException:  # a signal: start no further draw, let the running ones end
            with lock:
                lowest = -1
            done.wait()
            raise
    if failure is not None:
        raise failure


class RequestPool:
    """``size`` threads and the one queue they read: a remote run has one
    pool for its requests and one for its episodes.

    Each thread calls ``run(i)`` for the ``(run, i)`` items it takes, which
    ``put_all`` puts on the queue together; ``run`` must not raise (see
    ``_fill``).  ``close``, which leaving a ``with`` block calls, takes no
    further items, lets the threads finish the queue and joins them.
    """

    def __init__(self, size: int):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()  # puts a stage's items before close()'s stops
        self._closed = False
        self._threads: list[threading.Thread] = []
        try:
            for _ in range(size):
                thread = threading.Thread(target=self._serve)
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> RequestPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _serve(self) -> None:
        for run, i in iter(self._queue.get, None):
            run(i)

    def put_all(self, run: Callable[[int], None], count: int) -> None:
        """Queue ``run(i)`` for i in ``range(count)``, or refuse a closed pool."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the run's request pool is closed")
            for i in range(count):
                self._queue.put((run, i))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join()


# -- fixture store --------------------------------------------------------------

def _describe(identity: dict) -> str:
    return ", ".join(f"{key} {value!r}" for key, value in sorted(identity.items())) or "nothing"


def read_through(
    root: str | Path,
    prompt: PromptDocument,
    config: SamplingConfig,
    identity: dict | None = None,
    sampler: Callable[[PromptDocument, SamplingConfig], Callable[[int], str]] | None = None,
    requests: RequestPool | None = None,
) -> list[str]:
    """The ``config.num_samples`` samples of ``prompt`` in the fixture store at ``root``.

    The samples of one seed are one file, ``<root>/<prompt-hash>/<stage>/<seed>.json``:
    the sampling settings, ``identity`` (the generator that drew them) and a
    ``samples`` list indexed by k, ``null`` where a sample was never drawn.  A
    store recorded with another temperature, seed or max_length, or (when
    ``identity`` is given) by another generator, is refused.  Without a
    ``sampler`` a missing sample is an error and nothing is written.
    Otherwise ``sampler(prompt, config)``, called only when samples are
    missing and before any write, gives the function that draws sample k.
    The missing samples are drawn by ``_fill``, in the calling thread or
    through the ``requests`` pool; the file is then written once,
    atomically, keeping every sample drawn, and the failure of the lowest
    failing k, if any, is raised.
    """
    path = Path(root) / prompt.content_hash / prompt.kind / f"{config.seed}.json"
    header = {"instruction": prompt.instruction, "stage": prompt.kind,
              "prompt_hash": prompt.content_hash, "temperature": config.temperature,
              "seed": config.seed, "max_length": config.max_length}
    recorded = json_document(path, ProviderError) if path.exists() else {"samples": []}
    with reading(path, ProviderError):
        samples: list[str | None] = check_value("samples", recorded.pop("samples"), LIST,
                                                ProviderError)
        for k, sample in enumerate(samples):  # a cold store's list is empty here
            if sample is not None and type(sample) is not str:
                raise ProviderError(f"sample {k} is {sample!r}, not a string or null")
        samples += [None] * (config.num_samples - len(samples))
    if recorded:
        requested = (config.temperature, config.seed, config.max_length)
        settings = tuple(recorded.get(key) for key in ("temperature", "seed", "max_length"))
        if settings != requested:
            raise ProviderError(
                f"store at {path} was recorded with (temperature, seed, max_length)="
                f"{settings}, requested {requested}; clear it or use another fixtures_dir"
            )
        recorded_by = {key: value for key, value in recorded.items()
                       if key not in header and key != "num_samples"}
        if identity is not None and recorded_by != identity:
            raise ProviderError(
                f"store at {path} was recorded by {_describe(recorded_by)}, requested "
                f"{_describe(identity)}; clear it or use another fixtures_dir"
            )

    missing = [k for k in range(config.num_samples) if samples[k] is None]
    if missing and sampler is None:
        raise ProviderError(
            f"replay fixture missing: sample {missing[0]} of {path} (prompt hash "
            f"{prompt.content_hash}, stage {prompt.kind}, seed {config.seed})"
        )
    if not missing:
        return samples[: config.num_samples]
    draw = sampler(prompt, config)
    try:
        _fill(draw, missing, samples, requests)
    finally:
        document = {**header, **(identity or {}), "num_samples": len(samples), "samples": samples}
        atomic_write(path, json_text(document))
    return samples[: config.num_samples]


def json_text(doc: object) -> str:
    """The text of every JSON file the package writes: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by rename, making its directory if needed.

    A reader sees the old file or the new one, never a part; a failed write
    leaves the old file and no ``*.tmp`` behind.  The file gets the mode a
    plain write would give it (``0o666`` less the umask)."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:
        os.makedirs(path.parent, exist_ok=True)  # one mkdir per missing directory
        fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ReplayProvider:
    """Replays the samples recorded in the fixture store at ``root``.

    Any generator's samples are served, but only under the temperature and
    seed they were recorded with; a missing sample is an error.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        return read_through(self.root, prompt, config)


# -- synthetic noise model ----------------------------------------------------

@checked
class NoiseModel(NamedTuple):
    """Per-position perturbation probabilities plus an insertion pool."""

    drop_prob: float = 0.0
    swap_prob: float = 0.0
    insert_prob: float = 0.0
    distractor_pool: tuple[Command, ...] = ()

    def _check(self) -> None:
        for name in ("drop_prob", "swap_prob", "insert_prob"):
            check_value(name, getattr(self, name), PROBABILITY)


def _perturb(commands: Sequence[Command], noise: NoiseModel, rng: random.Random) -> list[Command]:
    draw, drop, swap, insert = rng.random, noise.drop_prob, noise.swap_prob, noise.insert_prob
    kept = [c for c in commands if draw() >= drop]
    for i in range(len(kept) - 1):
        if draw() < swap:
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
    if insert > 0.0 and noise.distractor_pool:
        out: list[Command] = []
        for c in kept:
            if draw() < insert:
                out.append(rng.choice(noise.distractor_pool))
            out.append(c)
        if draw() < insert:
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
    return [tuple(_perturb(seed_plan, noise, random.Random(derive_seed(seed, k))))
            for k in range(num_samples)]


class SyntheticProvider:
    """Emits noisy renderings of a known-good seed plan as raw plan texts.  With
    a ``root`` (empty is none), they are read through the fixture store there:
    stored samples are served, missing ones are drawn and stored."""

    def __init__(self, seed_plan: Plan, noise: NoiseModel = NoiseModel(),
                 root: str | Path | None = None):
        self.seed_plan, self.noise = seed_plan, noise
        self.root = Path(root) if root else None
        if self.root is not None:  # hashed only for a store: a run without one skips the cost
            # The seed plan and distractors come from the dataset, not the prompt.
            plans = json.dumps([render_plan(seed_plan), render_plan(noise.distractor_pool)])
            self.identity = {"noise": {"drop_prob": noise.drop_prob, "swap_prob": noise.swap_prob,
                                       "insert_prob": noise.insert_prob},
                             "plans": hashlib.blake2b(plans.encode("utf-8"), digest_size=8).hexdigest()}

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        if self.root is not None:
            return read_through(self.root, prompt, config, self.identity, self.sampler)
        draw = self.sampler(prompt, config)
        return [draw(k) for k in range(config.num_samples)]

    def sampler(self, prompt: PromptDocument, config: SamplingConfig) -> Callable[[int], str]:
        """The draw of sample k, which depends on (seed, prompt hash, k) only, so
        the samples a store lacks can be drawn in any run, in any order.  The
        draws share one generator, so they are called from one thread at a
        time: no synthetic store draw goes through a request pool."""
        commands, noise, limit = self.seed_plan, self.noise, config.max_length or None
        if not (noise.drop_prob or noise.swap_prob or noise.insert_prob and noise.distractor_pool):
            # random() >= 0 keeps every command and random() < 0 swaps none, so
            # no stream can change the plan: each k draws the seed plan's text.
            text = render_plan(commands[:limit]) + "\n"
            return lambda k: text
        seed_of = seeds_after(config.seed, prompt.content_hash)
        # Reseeded through the C base seed, rng has the state random.Random(seed_of(k))
        # would have: random.Random.seed only adds clearing a gauss cache _perturb never reads.
        rng = random.Random(0)
        reseed = super(random.Random, rng).seed

        def draw(k: int) -> str:
            reseed(seed_of(k))
            return render_plan(_perturb(commands, noise, rng)[:limit]) + "\n"

        return draw


# -- remote -------------------------------------------------------------------

class _BadResponse(ProviderError):
    """A response no retry can fix: its body is not JSON or has the wrong shape."""


def _http_transport(request: dict, endpoint: str, api_key: str, timeout: float) -> str:
    import http.client  # both here, so that a run that sends no request does not import them
    import urllib.request

    payload = json.dumps(request).encode("utf-8")
    req = urllib.request.Request(
        endpoint,
        data=payload,
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {api_key}",
        },
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
    except http.client.HTTPException as exc:  # a dropped connection or a truncated body
        raise ProviderError(f"broken HTTP response: {exc!r}") from exc
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


class RemoteProvider:
    """Chat-completions style HTTP provider over a fixture store.

    Every response is kept in the fixture store at ``cache_dir`` (see
    ``read_through``), so a finished remote run can be replayed offline by
    pointing a ReplayProvider at it, and a store recorded by another model is
    refused.  Sample k's request depends on k and the sampling config only,
    and its answer lands at index k.  In a remote ``run_suite``,
    ``requests`` is the run's request pool: a stage's missing samples are
    drawn by its threads, and a request not yet sent is skipped once a
    lower one has failed (see ``_fill``), so an injected ``transport`` must
    be thread-safe.  With ``requests`` ``None``, as on a provider made
    outside a run, they are sent one at a time, in k order.

    Timeouts, connection errors (refused, reset or dropped before the
    response), broken HTTP responses (a truncated body), HTTP 5xx, 408 and
    429 are retried with backoff; missing credentials, other HTTP 4xx and
    malformed response bodies fail at once.  Credentials, and an endpoint
    that is not an http(s) URL, are checked before anything is sent or
    written.
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
        self.requests: RequestPool | None = None

    def generate(self, prompt: PromptDocument, config: SamplingConfig) -> list[str]:
        return read_through(self.cache_dir, prompt, config, {"model": self.model},
                            self._sampler, self.requests)

    def _sampler(self, prompt: PromptDocument, config: SamplingConfig) -> Callable[[int], str]:
        """Sample k's request through the injected transport, or HTTP with the
        API key from the environment."""
        send = self._transport
        if send is None:
            api_key = os.environ.get(self.api_key_env)
            if not api_key:
                raise ProviderError(f"remote provider needs credentials in ${self.api_key_env}")
            if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
                raise ProviderError(f"remote endpoint {self.endpoint!r} is not an http(s) URL")
            send = functools.partial(_http_transport, endpoint=self.endpoint, api_key=api_key,
                                     timeout=self.timeout)

        # Built once per stage: every request of the stage shares these bytes.
        seed_of = seeds_after(config.seed)
        messages = [{"role": "user", "content": prompt.text}]

        def draw(k: int) -> str:
            return self._call_with_retries(send, {
                "model": self.model,
                "messages": messages,
                "temperature": config.temperature,
                "max_tokens": 16 * config.max_length,
                "seed": seed_of(k) % (2**31),
                "n": 1,
            })

        return draw

    def _call_with_retries(self, send: Callable[[dict], str], request: dict) -> str:
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                return send(request)
            except (urllib.error.URLError, TimeoutError, ConnectionError, ProviderError) as exc:
                if _is_fatal(exc):
                    raise ProviderError(f"remote call failed, not retried: {exc}") from exc
                last = exc
            if attempt + 1 < self.retries:
                time.sleep(min(2.0**attempt, 8.0))
        raise ProviderError(f"remote call failed after {self.retries} attempts: {last}")
