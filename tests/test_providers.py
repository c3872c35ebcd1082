import io
import json
import os
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from http.client import IncompleteRead, RemoteDisconnected
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votetree.errors import ConfigError, ProviderError
from votetree import harness, providers
from votetree.plans import Command, parse_plan_text, render_plan
from votetree.prompts import PromptDocument, SamplingConfig
from votetree.providers import (
    NoiseModel,
    RemoteProvider,
    ReplayProvider,
    SyntheticProvider,
    atomic_write,
    derive_seed,
    read_through,
    synthesize_noisy_plans,
)
from votetree.tree import build_vote_tree, tree_to_dict

from conftest import plan_of


@pytest.fixture
def prompt():
    return PromptDocument(kind="prog", text="def microwave_salmon():\n", instruction="microwave salmon")


@pytest.fixture
def seed_plan():
    return plan_of(
        "find(salmon)", "grab(salmon)", "find(microwave)", "open(microwave)",
        "putin(salmon,microwave)", "close(microwave)", "switchon(microwave)",
        "find(kitchentable)",
    )


class TestReplayProvider:
    @staticmethod
    def _write_seed_file(root, prompt, samples):
        stage = root / prompt.content_hash / "prog"
        stage.mkdir(parents=True)
        (stage / "0.json").write_text(json.dumps({"samples": samples}), encoding="utf-8")

    def test_returns_recorded_texts_in_order(self, tmp_path, prompt):
        self._write_seed_file(tmp_path, prompt, [f"find('obj{k}')\n" for k in range(30)])
        provider = ReplayProvider(tmp_path)
        texts = provider.generate(prompt, SamplingConfig(num_samples=30))
        assert len(texts) == 30
        assert texts[0] == "find('obj0')\n"
        assert texts[29] == "find('obj29')\n"

    def test_missing_fixture_names_path(self, tmp_path, prompt):
        with pytest.raises(ProviderError, match=prompt.content_hash):
            ReplayProvider(tmp_path).generate(prompt, SamplingConfig(num_samples=1))
        assert list(tmp_path.iterdir()) == []

    def test_malformed_store_file_names_it(self, tmp_path, prompt):
        for name, text in (("list", "[]"), ("no-samples", '{"seed": 0}'),
                           ("int-samples", '{"samples": 3}'), ("not-json", "{")):
            stage = tmp_path / name / prompt.content_hash / "prog"
            stage.mkdir(parents=True)
            (stage / "0.json").write_text(text, encoding="utf-8")
            with pytest.raises(ProviderError, match=f"{name}/{prompt.content_hash}/prog/0.json: "):
                ReplayProvider(tmp_path / name).generate(prompt, SamplingConfig(num_samples=1))

    def test_a_stored_sample_that_is_not_a_string_is_refused(self, tmp_path, prompt, seed_plan):
        """Replay and a recording synthetic store refuse a file whose sample 3
        is a number, naming the file, before drawing or writing anything."""
        cfg = SamplingConfig(num_samples=6, seed=2)
        synthetic = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.5), tmp_path)
        synthetic.generate(prompt, cfg)
        path = tmp_path / prompt.content_hash / "prog" / "2.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["samples"][3] = 3
        doc["samples"][5] = None
        path.write_text(json.dumps(doc), encoding="utf-8")
        for provider in (ReplayProvider(tmp_path), synthetic):
            with pytest.raises(ProviderError) as raised:
                provider.generate(prompt, cfg)
            assert str(raised.value) == f"{path}: sample 3 is 3, not a string or null"
            assert json.loads(path.read_text(encoding="utf-8")) == doc

    def test_shortfall_is_an_error(self, tmp_path, prompt):
        self._write_seed_file(tmp_path, prompt, ["find('a')\n"])
        with pytest.raises(ProviderError, match="fixture missing: sample 1 of"):
            ReplayProvider(tmp_path).generate(prompt, SamplingConfig(num_samples=2))

    def test_serves_any_generator_but_only_its_settings(self, tmp_path, prompt, seed_plan):
        """Replay accepts every generator's store, and refuses another
        temperature; another seed is another directory."""
        cfg = SamplingConfig(num_samples=4, temperature=0.1, seed=3)
        recorded = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.5),
                                     tmp_path).generate(prompt, cfg)
        assert ReplayProvider(tmp_path).generate(prompt, cfg) == recorded
        with pytest.raises(ProviderError, match="recorded with"):
            ReplayProvider(tmp_path).generate(
                prompt, SamplingConfig(num_samples=4, temperature=0.7, seed=3))
        with pytest.raises(ProviderError, match="fixture missing"):
            ReplayProvider(tmp_path).generate(
                prompt, SamplingConfig(num_samples=4, temperature=0.1, seed=4))


class TestSyntheticProvider:
    def test_zero_noise_gives_identical_copies(self, prompt, seed_plan):
        provider = SyntheticProvider(seed_plan)
        texts = provider.generate(prompt, SamplingConfig(num_samples=20, seed=5))
        assert len(texts) == 20
        assert len(set(texts)) == 1
        plan, _ = parse_plan_text(texts[0])
        assert plan == seed_plan

    def test_seeded_determinism(self, prompt, seed_plan):
        provider = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.3, swap_prob=0.2))
        cfg = SamplingConfig(num_samples=10, seed=99)
        assert provider.generate(prompt, cfg) == provider.generate(prompt, cfg)
        other = provider.generate(prompt, SamplingConfig(num_samples=10, seed=100))
        assert other != provider.generate(prompt, cfg)

    @pytest.mark.parametrize("noise", [NoiseModel(distractor_pool=(Command("find", ("sofa",)),)),
                                       NoiseModel(insert_prob=0.5)])
    def test_noise_free_samples_draw_no_stream(self, prompt, seed_plan, noise, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a noise-free sample drew a random stream")

        monkeypatch.setattr(providers.random, "Random", no_stream)
        monkeypatch.setattr(providers, "seeds_after", no_stream)
        texts = SyntheticProvider(seed_plan, noise).generate(
            prompt, SamplingConfig(num_samples=12, seed=5))
        assert texts == [render_plan(seed_plan) + "\n"] * 12

    def test_sample_count_contract(self, prompt, seed_plan):
        provider = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.9))
        assert len(provider.generate(prompt, SamplingConfig(num_samples=7, seed=1))) == 7


def _reference_perturb(commands, noise, rng):
    """The perturbation as first written: every draw in the generator's order."""
    kept = [c for c in commands if rng.random() >= noise.drop_prob]
    for i in range(len(kept) - 1):
        if rng.random() < noise.swap_prob:
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
    if noise.insert_prob > 0.0 and noise.distractor_pool:
        out = []
        for c in kept:
            if rng.random() < noise.insert_prob:
                out.append(rng.choice(noise.distractor_pool))
            out.append(c)
        if rng.random() < noise.insert_prob:
            out.append(rng.choice(noise.distractor_pool))
        kept = out
    return kept


COMMANDS = st.builds(Command, st.sampled_from(["find", "grab", "open", "flomp"]),
                     st.lists(st.sampled_from(["apple", "fridge", "sofa"]), min_size=1,
                              max_size=2).map(tuple))
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


class TestSamplerMatchesReference:
    """Sample k is ``random.Random(derive_seed(seed, prompt hash, k))`` perturbing
    the seed plan, cut to ``max_length`` and rendered one command a
    line with a final newline; fixture stores hold these texts, so they are a
    contract."""

    @given(seed=st.integers(-2**64, 2**64), k=st.integers(0, 200), text=st.text(max_size=20),
           commands=st.lists(COMMANDS, min_size=1, max_size=10),
           drop=PROBABILITIES, swap=PROBABILITIES, insert=PROBABILITIES,
           pool=st.lists(COMMANDS, max_size=4), max_length=st.integers(1, 12))
    @example(seed=3, k=0, text="", commands=[Command("find", ("apple",))], drop=1.0, swap=0.0,
             insert=0.0, pool=[], max_length=80)
    # Noise-free models, whose samples draw no stream: no noise beside a pool,
    # insertions with no pool, and a cut shorter than the plan.
    @example(seed=5, k=7, text="x", commands=[Command("find", ("apple",)),
                                              Command("grab", ("apple",))],
             drop=0.0, swap=0.0, insert=0.0, pool=[Command("open", ("fridge",))], max_length=80)
    @example(seed=-2, k=3, text="", commands=[Command("find", ("sofa",)),
                                              Command("open", ("fridge",))],
             drop=0.0, swap=0.0, insert=0.5, pool=[], max_length=80)
    @example(seed=11, k=1, text="y", commands=[Command("find", ("apple",)),
                                               Command("grab", ("apple",)),
                                               Command("open", ("fridge",))],
             drop=0.0, swap=0.0, insert=0.0, pool=[], max_length=2)
    def test_sample_k_equals_the_reference(self, seed, k, text, commands, drop, swap, insert,
                                           pool, max_length):
        prompt = PromptDocument(kind="prog", text=text, instruction="t")
        config = SamplingConfig(num_samples=1, max_length=max_length, seed=seed)
        noise = NoiseModel(drop, swap, insert, tuple(pool))
        rng = random.Random(derive_seed(seed, prompt.content_hash, k))
        kept = _reference_perturb(commands, noise, rng)
        expected = render_plan(tuple(kept[:max_length])) + "\n"
        sample = SyntheticProvider(tuple(commands), noise).sampler(prompt, config)(k)
        assert sample == expected
        if drop == 1.0 and not (insert and pool):
            assert sample == "\n"


class TestNoiseModel:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigError):
            NoiseModel(drop_prob=1.5)
        with pytest.raises(ConfigError):
            NoiseModel(swap_prob=-0.1)

    def test_identity_when_all_zero(self, seed_plan):
        samples = synthesize_noisy_plans(seed_plan, NoiseModel(), 20, seed=3)
        assert all(s == seed_plan for s in samples)

    def test_drop_one_annihilates(self, seed_plan):
        samples = synthesize_noisy_plans(seed_plan, NoiseModel(drop_prob=1.0), 10, seed=3)
        assert all(s == () for s in samples)

    def test_drop_rate_monte_carlo(self, seed_plan):
        # Independent oracle: lengths ~ Binomial(8, 0.8); the mean over 10^4
        # samples should sit within a few standard errors of 6.4.
        samples = synthesize_noisy_plans(seed_plan, NoiseModel(drop_prob=0.2), 10_000, seed=123)
        mean_len = sum(len(s) for s in samples) / len(samples)
        assert abs(mean_len - 8 * 0.8) < 0.05

    def test_swap_only_preserves_multiset(self, seed_plan):
        samples = synthesize_noisy_plans(seed_plan, NoiseModel(swap_prob=0.5), 200, seed=17)
        reference = Counter(seed_plan)
        for s in samples:
            assert Counter(s) == reference

    def test_insert_only_adds_pool_members(self, seed_plan):
        pool = (Command("find", ("doorknob",)), Command("grab", ("sofa",)))
        samples = synthesize_noisy_plans(
            seed_plan, NoiseModel(insert_prob=0.3, distractor_pool=pool), 100, seed=23
        )
        originals = set(seed_plan)
        for s in samples:
            assert len(s) >= len(seed_plan)
            extras = [c for c in s if c not in originals]
            assert all(c in pool for c in extras)

    def test_insert_without_pool_is_identity(self, seed_plan):
        samples = synthesize_noisy_plans(seed_plan, NoiseModel(insert_prob=0.9), 10, seed=1)
        assert all(s == seed_plan for s in samples)


class TestRecordFixtures:
    def test_record_then_replay_round_trip(self, tmp_path, prompt, seed_plan):
        provider = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.2))
        cfg = SamplingConfig(num_samples=12, seed=4)
        SyntheticProvider(seed_plan, provider.noise, tmp_path).generate(prompt, cfg)
        seed_file = tmp_path / prompt.content_hash / "prog" / "4.json"
        assert seed_file.exists()
        stored = json.loads(seed_file.read_text(encoding="utf-8"))
        assert stored["num_samples"] == 12
        replayed = ReplayProvider(tmp_path).generate(prompt, cfg)
        assert replayed == provider.generate(prompt, cfg)

    def test_store_filled_under_other_noise_is_refused(self, tmp_path, prompt, seed_plan):
        cfg = SamplingConfig(num_samples=5, seed=4)
        drop_2 = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.2), tmp_path)
        texts = drop_2.generate(prompt, cfg)
        assert drop_2.generate(prompt, cfg) == texts
        drop_5 = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.5), tmp_path)
        with pytest.raises(ProviderError, match="recorded by noise .*'drop_prob': 0.2"):
            drop_5.generate(prompt, cfg)
        remote = RemoteProvider(endpoint="", model="m1", cache_dir=tmp_path,
                                transport=lambda request: "find('a')\n")
        with pytest.raises(ProviderError, match="recorded by noise"):
            remote.generate(prompt, cfg)

    def test_store_filled_at_another_max_length_is_refused(self, tmp_path, prompt, seed_plan):
        provider = SyntheticProvider(seed_plan, root=tmp_path)
        provider.generate(prompt, SamplingConfig(num_samples=3, seed=4, max_length=80))
        short = SamplingConfig(num_samples=3, seed=4, max_length=2)
        with pytest.raises(ProviderError, match="recorded with"):
            provider.generate(prompt, short)
        with pytest.raises(ProviderError, match="recorded with"):
            ReplayProvider(tmp_path).generate(prompt, short)
        remote = RemoteProvider(endpoint="", model="m1", cache_dir=tmp_path / "remote",
                                transport=lambda request: "find('a')\n")
        remote.generate(prompt, SamplingConfig(num_samples=1, seed=4, max_length=80))
        with pytest.raises(ProviderError, match="recorded with"):
            remote.generate(prompt, SamplingConfig(num_samples=1, seed=4, max_length=2))

    def test_store_filled_from_another_seed_plan_is_refused(self, tmp_path, prompt, seed_plan):
        """The seed plan and distractors come from the dataset, not the prompt,
        so the store names them too."""
        cfg = SamplingConfig(num_samples=3, seed=4)
        noise = NoiseModel(drop_prob=0.2)
        SyntheticProvider(seed_plan, noise, tmp_path).generate(prompt, cfg)
        shorter = plan_of(*(c.canonical_form for c in seed_plan[:-1]))
        with pytest.raises(ProviderError, match="recorded by"):
            SyntheticProvider(shorter, noise, tmp_path).generate(prompt, cfg)
        other_pool = NoiseModel(drop_prob=0.2, distractor_pool=(Command("find", ("sofa",)),))
        with pytest.raises(ProviderError, match="recorded by"):
            SyntheticProvider(seed_plan, other_pool, tmp_path).generate(prompt, cfg)

    def test_recording_keeps_the_remote_model(self, tmp_path, prompt):
        """Recording into a remote cache must not erase the model it was drawn by."""
        cfg = SamplingConfig(num_samples=3, seed=4)

        def remote(model):
            return RemoteProvider(endpoint="https://example.invalid/v1/chat/completions",
                                  model=model, cache_dir=tmp_path,
                                  transport=lambda request: f"find('{model}')\n")

        remote("m1").generate(prompt, cfg)
        seed_file = tmp_path / prompt.content_hash / "prog" / "4.json"
        stored = json.loads(seed_file.read_text(encoding="utf-8"))
        assert stored["model"] == "m1"
        with pytest.raises(ProviderError, match="recorded by model 'm1'"):
            remote("m2").generate(prompt, cfg)


class TestRemoteProvider:
    def _provider(self, tmp_path, transport):
        return RemoteProvider(
            endpoint="https://example.invalid/v1/chat/completions",
            model="test-model",
            cache_dir=tmp_path,
            transport=transport,
        )

    def test_cache_fidelity_remote_then_replay(self, tmp_path, prompt):
        scripted = [
            "find('salmon')\ngrab('salmon')\n",
            "find('salmon')\ngrab('salmon')\nfind('microwave')\n",
            "grab('salmon')\n",
        ]
        calls = []

        def transport(request):
            calls.append(request)
            return scripted[len(calls) - 1]

        provider = self._provider(tmp_path, transport)
        cfg = SamplingConfig(num_samples=3, seed=0)
        remote_texts = provider.generate(prompt, cfg)
        assert remote_texts == scripted
        assert len(calls) == 3

        # Same call again: served from cache, no new transport calls.
        assert provider.generate(prompt, cfg) == scripted
        assert len(calls) == 3

        # A replay provider over the cache yields the same downstream tree.
        replay_texts = ReplayProvider(tmp_path).generate(prompt, cfg)
        assert replay_texts == remote_texts

        def to_tree(texts):
            plans = []
            for t in texts:
                plan, _ = parse_plan_text(t)
                plans.append(plan)
            return tree_to_dict(build_vote_tree(plans))

        assert to_tree(replay_texts) == to_tree(remote_texts)

    def test_cache_rejects_mismatched_sampling_config(self, tmp_path, prompt):
        provider = self._provider(tmp_path, lambda request: "find('a')\n")
        provider.generate(prompt, SamplingConfig(num_samples=1, temperature=0.1, seed=7))
        with pytest.raises(ProviderError, match="recorded with"):
            provider.generate(prompt, SamplingConfig(num_samples=1, temperature=0.9, seed=7))

    def test_cache_rejects_another_models_samples(self, tmp_path, prompt):
        cfg = SamplingConfig(num_samples=1, seed=7)
        self._provider(tmp_path, lambda request: "find('a')\n").generate(prompt, cfg)
        other = self._provider(tmp_path, lambda request: "find('b')\n")
        other.model = "other-model"
        with pytest.raises(ProviderError, match="recorded by model 'test-model'"):
            other.generate(prompt, cfg)

    def test_transport_failures_exhaust_retries(self, tmp_path, prompt):
        def failing(request):
            raise ProviderError("boom")

        provider = self._provider(tmp_path, failing)
        provider.retries = 2
        with pytest.raises(ProviderError, match="after 2 attempts"):
            provider.generate(prompt, SamplingConfig(num_samples=1))

    def test_missing_credentials(self, tmp_path, prompt, monkeypatch):
        monkeypatch.delenv("VOTETREE_API_KEY", raising=False)
        provider = self._provider(tmp_path, None)
        with pytest.raises(ProviderError, match="VOTETREE_API_KEY"):
            provider.generate(prompt, SamplingConfig(num_samples=1))


class TestRemoteRetries:
    """Retryable failures back off and retry; fatal ones fail at once, asleep never."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        return slept

    @pytest.fixture
    def http(self, monkeypatch):
        """Scripted ``urlopen``: each call pops the next response or raises it."""
        script: list = []
        calls: list = []

        def urlopen(request, timeout):
            calls.append(request)
            outcome = script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return io.BytesIO(outcome.encode("utf-8"))

        monkeypatch.setenv("VOTETREE_API_KEY", "test-key")
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        return script, calls

    def _provider(self, tmp_path, retries=3):
        return RemoteProvider(endpoint="https://example.invalid/v1/chat/completions",
                              model="test-model", cache_dir=tmp_path, retries=retries)

    @staticmethod
    def _status(code):
        return urllib.error.HTTPError("https://example.invalid", code, "status", {}, None)

    def test_missing_credentials_fail_before_any_attempt(self, tmp_path, prompt, sleeps,
                                                         monkeypatch):
        monkeypatch.delenv("VOTETREE_API_KEY", raising=False)
        with pytest.raises(ProviderError, match="VOTETREE_API_KEY"):
            self._provider(tmp_path).generate(prompt, SamplingConfig(num_samples=2))
        assert sleeps == []

    @pytest.mark.parametrize("endpoint", ["", "localhost:9/v1"])
    def test_an_endpoint_that_is_not_http_fails_before_any_attempt(self, tmp_path, prompt, sleeps,
                                                                   http, endpoint):
        script, calls = http
        provider = RemoteProvider(endpoint=endpoint, model="test-model",
                                  cache_dir=tmp_path / "cache")
        with pytest.raises(ProviderError, match="not an http"):
            provider.generate(prompt, SamplingConfig(num_samples=2))
        assert calls == []
        assert not (tmp_path / "cache").exists()
        assert sleeps == []

    @pytest.mark.parametrize("response", [
        400, 401, 403, 404, 422,
        "not json",
        json.dumps({"choices": []}),
        json.dumps({"choices": [{"message": {"content": None}}]}),
    ])
    def test_fatal_responses_are_not_retried(self, tmp_path, prompt, sleeps, http, response):
        script, calls = http
        script.append(self._status(response) if isinstance(response, int) else response)
        with pytest.raises(ProviderError, match="not retried"):
            self._provider(tmp_path).generate(prompt, SamplingConfig(num_samples=1))
        assert len(calls) == 1
        assert sleeps == []

    @pytest.mark.parametrize("failure", [
        500, 503, 408, 429,
        urllib.error.URLError("connection refused"),
        TimeoutError("timed out"),
        ConnectionResetError("connection reset by peer"),
        RemoteDisconnected("Remote end closed connection without response"),
        IncompleteRead(b"{\"choi", 40),
    ])
    def test_transient_failures_are_retried(self, tmp_path, prompt, sleeps, http, failure):
        script, calls = http
        error = self._status(failure) if isinstance(failure, int) else failure
        script.extend([error, error, error])
        with pytest.raises(ProviderError, match="after 3 attempts"):
            self._provider(tmp_path).generate(prompt, SamplingConfig(num_samples=1))
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_retry_recovers(self, tmp_path, prompt, sleeps, http):
        script, calls = http
        script.extend([self._status(503),
                       json.dumps({"choices": [{"message": {"content": "find('a')\n"}}]})])
        texts = self._provider(tmp_path).generate(prompt, SamplingConfig(num_samples=1))
        assert texts == ["find('a')\n"]
        assert sleeps == [1.0]

    def test_a_dropped_connection_is_retried(self, tmp_path, prompt, sleeps, http):
        """``urlopen`` passes on the error ``getresponse`` raises when the
        server closes the connection before answering."""
        script, calls = http
        script.extend([RemoteDisconnected("Remote end closed connection without response"),
                       json.dumps({"choices": [{"message": {"content": "find('a')\n"}}]})])
        texts = self._provider(tmp_path).generate(prompt, SamplingConfig(num_samples=1))
        assert texts == ["find('a')\n"]
        assert len(calls) == 2
        assert sleeps == [1.0]


class TestRemoteConcurrency:
    """Outside a run, missing samples are requested one at a time, in k order;
    inside a remote run a stage sends them together, as one batch, through the
    run's request pool (see test_harness.TestRemoteRun)."""

    @staticmethod
    def _k_of(cfg):
        """Sample index of a request, recovered from its seed."""
        by_seed = {derive_seed(cfg.seed, k) % (2**31): k for k in range(cfg.num_samples)}
        return lambda request: by_seed[request["seed"]]

    @staticmethod
    def _provider(cache_dir, transport, model="test-model"):
        return RemoteProvider(endpoint="https://example.invalid/v1/chat/completions",
                              model=model, cache_dir=cache_dir, transport=transport)

    @staticmethod
    def _files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def test_one_generate_sends_one_request_at_a_time_in_k_order(self, tmp_path, prompt):
        cfg = SamplingConfig(num_samples=12, seed=3)
        k_of = self._k_of(cfg)
        sent: list[tuple[int, int]] = []  # (k, thread) of each request

        def transport(request):
            sent.append((k_of(request), threading.get_ident()))
            return f"find('obj{k_of(request)}')\n"

        texts = self._provider(tmp_path, transport).generate(prompt, cfg)
        assert texts == [f"find('obj{k}')\n" for k in range(cfg.num_samples)]
        # All from the calling thread, so one at a time, and in k order.
        assert sent == [(k, threading.get_ident()) for k in range(cfg.num_samples)]

    def test_fatal_error_stops_queued_requests(self, tmp_path, prompt, monkeypatch):
        """Outside a run the requests go one at a time in k order, so a fatal
        error at sample 0 sends nothing more and retries nothing."""
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        cfg = SamplingConfig(num_samples=40, seed=2)
        k_of = self._k_of(cfg)
        sent: list[int] = []

        def transport(request):
            sent.append(k_of(request))
            if k_of(request) == 0:
                raise urllib.error.HTTPError("https://example.invalid", 400, "bad", {}, None)
            return "find('a')\n"

        with pytest.raises(ProviderError, match="not retried"):
            self._provider(tmp_path, transport).generate(prompt, cfg)
        assert sent == [0]
        assert slept == []

    def test_lowest_failing_sample_is_raised(self, tmp_path, prompt):
        """Outside a run sample 1's failure ends the fill before sample 3 is
        sent; test_a_batch_raises_its_lowest_failure covers a pool, where
        sample 1 fails after a higher sample has."""
        cfg = SamplingConfig(num_samples=4, seed=2)
        k_of = self._k_of(cfg)
        sent: list[int] = []

        def transport(request):
            k = k_of(request)
            sent.append(k)
            if k == 3:
                raise urllib.error.HTTPError("https://example.invalid", 403, "three", {}, None)
            if k == 1:
                raise urllib.error.HTTPError("https://example.invalid", 401, "one", {}, None)
            return "find('a')\n"

        with pytest.raises(ProviderError, match="401"):
            self._provider(tmp_path, transport).generate(prompt, cfg)
        assert sent == [0, 1]

    @staticmethod
    def _through(pool, provider, prompt, cfg):
        """``provider.generate`` as a remote run's episode thread calls it."""
        provider.requests = pool
        return provider.generate(prompt, cfg)

    def test_a_batch_skips_what_has_not_started_once_its_lowest_failure_ends(self, tmp_path,
                                                                             prompt):
        """One request thread takes a batch's items in k order: sample 1
        fails, so samples 2-5 are never sent, and sample 0 is kept."""
        cfg = SamplingConfig(num_samples=6, seed=2)
        k_of = self._k_of(cfg)
        sent: list[int] = []

        def transport(request):
            sent.append(k_of(request))
            if k_of(request) == 1:
                raise urllib.error.HTTPError("https://example.invalid", 400, "bad", {}, None)
            return f"find('obj{k_of(request)}')\n"

        with harness.RequestPool(1) as pool, pytest.raises(ProviderError, match="not retried"):
            self._through(pool, self._provider(tmp_path, transport), prompt, cfg)
        assert sent == [0, 1]
        stored = json.loads((tmp_path / prompt.content_hash / "prog" / "2.json")
                            .read_text(encoding="utf-8"))["samples"]
        assert stored == ["find('obj0')\n", None, None, None, None, None]

    def test_a_batch_raises_its_lowest_failure(self, tmp_path, prompt):
        """Two request threads: sample 0 is answered, sample 1 waits, sample 2
        fails.  Samples 3 and 4 are never sent, though sample 1 is still
        running; then sample 1 fails, and its error is raised.  A rerun sends
        only the unanswered requests and leaves the store a clean run leaves."""
        cfg = SamplingConfig(num_samples=5, seed=2)
        k_of = self._k_of(cfg)
        lock = threading.Lock()
        sent: list[int] = []
        three_sent = threading.Event()

        def answer(request):
            return f"find('obj{k_of(request)}')\n"

        def transport(request):
            k = k_of(request)
            with lock:
                sent.append(k)
            if k == 1:
                three_sent.wait(0.5)  # never set: sample 3 is skipped
                raise urllib.error.HTTPError("https://example.invalid", 401, "one", {}, None)
            if k == 2:
                raise urllib.error.HTTPError("https://example.invalid", 403, "two", {}, None)
            if k == 3:
                three_sent.set()
            return answer(request)

        with harness.RequestPool(2) as pool, pytest.raises(ProviderError, match="401"):
            self._through(pool, self._provider(tmp_path / "resumed", transport), prompt, cfg)
        assert sorted(sent) == [0, 1, 2]
        stored = json.loads((tmp_path / "resumed" / prompt.content_hash / "prog" / "2.json")
                            .read_text(encoding="utf-8"))["samples"]
        assert stored == ["find('obj0')\n", None, None, None, None]

        resent: list[int] = []

        def working(request):
            with lock:
                resent.append(k_of(request))
            return answer(request)

        with harness.RequestPool(2) as pool:
            texts = self._through(pool, self._provider(tmp_path / "resumed", working),
                                  prompt, cfg)
        assert sorted(resent) == [1, 2, 3, 4]
        clean = self._provider(tmp_path / "clean", answer).generate(prompt, cfg)
        assert texts == clean
        assert self._files(tmp_path / "resumed") == self._files(tmp_path / "clean")

    def test_a_closed_pool_takes_no_batch(self, tmp_path, prompt):
        """An episode still running when its run closes the pool (say, after a
        second Ctrl-C) fails at its next stage instead of waiting forever."""
        sent: list[dict] = []
        with harness.RequestPool(2) as pool:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            self._through(pool, self._provider(tmp_path, sent.append), prompt,
                          SamplingConfig(num_samples=3))
        assert sent == []

    def test_missing_credentials_send_and_write_nothing(self, tmp_path, prompt, monkeypatch):
        monkeypatch.delenv("VOTETREE_API_KEY", raising=False)
        opened: list = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: opened.append(a))
        provider = RemoteProvider(endpoint="https://example.invalid/v1/chat/completions",
                                  model="test-model", cache_dir=tmp_path)
        with pytest.raises(ProviderError, match="VOTETREE_API_KEY"):
            provider.generate(prompt, SamplingConfig(num_samples=20))
        assert opened == []
        assert list(tmp_path.iterdir()) == []

    def test_partial_cache_is_not_served_under_other_settings(self, tmp_path, prompt):
        """A run that fails partway leaves some samples; its manifest must guard them."""
        calls = [0]
        lock = threading.Lock()

        def fails_on_third_call(request):
            with lock:
                calls[0] += 1
                n = calls[0]
            if n == 3:
                raise urllib.error.HTTPError("https://example.invalid", 400, "bad", {}, None)
            return f"seedA-{request['seed']}\n"

        with pytest.raises(ProviderError):
            self._provider(tmp_path, fails_on_third_call, model="m1").generate(
                prompt, SamplingConfig(num_samples=6, seed=1))
        other = self._provider(tmp_path, lambda request: f"seedB-{request['seed']}\n",
                               model="other-model")
        with pytest.raises(ProviderError, match="recorded with"):
            other.generate(prompt, SamplingConfig(num_samples=6, temperature=0.9, seed=1))
        seed_2 = SamplingConfig(num_samples=6, seed=2)
        assert other.generate(prompt, seed_2) == [
            f"seedB-{derive_seed(2, k) % 2**31}\n" for k in range(6)]

    def test_rerun_after_a_failure_sends_only_the_missing_requests(self, tmp_path, prompt):
        """A fill that fails partway keeps what it drew; a rerun draws the rest."""
        cfg = SamplingConfig(num_samples=6, seed=1)
        lock = threading.Lock()
        sent: list[int] = []

        def answer(request):
            return f"find('obj{request['seed']}')\n"

        def fails_on_third_call(request):
            with lock:
                sent.append(request["seed"])
                n = len(sent)
            if n == 3:
                raise urllib.error.HTTPError("https://example.invalid", 400, "bad", {}, None)
            return answer(request)

        with pytest.raises(ProviderError, match="not retried"):
            self._provider(tmp_path / "resumed", fails_on_third_call).generate(prompt, cfg)
        failed = sent[2]
        stored = json.loads((tmp_path / "resumed" / prompt.content_hash / "prog" / "1.json")
                            .read_text(encoding="utf-8"))["samples"]
        kept = {derive_seed(cfg.seed, k) % 2**31 for k, text in enumerate(stored) if text}
        assert failed not in kept and len(kept) >= 2

        resent: list[int] = []

        def working(request):
            with lock:
                resent.append(request["seed"])
            return answer(request)

        texts = self._provider(tmp_path / "resumed", working).generate(prompt, cfg)
        every = {derive_seed(cfg.seed, k) % 2**31 for k in range(cfg.num_samples)}
        assert sorted(resent) == sorted(every - kept)
        clean = self._provider(tmp_path / "clean", answer).generate(prompt, cfg)
        assert texts == clean
        assert self._files(tmp_path / "resumed") == self._files(tmp_path / "clean")

    def test_one_generate_call_writes_one_file(self, tmp_path, prompt, seed_plan):
        cfg = SamplingConfig(num_samples=30, seed=5)
        self._provider(tmp_path / "remote", lambda request: "find('a')\n").generate(prompt, cfg)
        stored = SyntheticProvider(seed_plan, NoiseModel(drop_prob=0.2), tmp_path / "synthetic")
        stored.generate(prompt, cfg)
        for root in (tmp_path / "remote", tmp_path / "synthetic"):
            assert list(self._files(root)) == [f"{prompt.content_hash}/prog/5.json"]


class _Stop(BaseException):
    """A failure that is not an ``Exception``."""


class TestFillRule:
    """The rule by which a stage draws its missing samples, in the calling
    thread in k order or through a request pool (``RequestPool.fill``, by
    which a remote run also runs its episodes)."""

    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), threads=st.sampled_from([None, 1, 2, 4]),
           error=st.sampled_from([ValueError, _Stop]))
    def test_the_lowest_failure_is_raised_and_every_sample_below_it_kept(self, data, n,
                                                                         threads, error):
        failing = data.draw(st.sets(st.integers(0, n - 1)), label="failing")
        slow = data.draw(st.sets(st.integers(0, n - 1)), label="slow")  # end after the others
        lock = threading.Lock()
        drawn: list[int] = []

        def draw(k):
            with lock:
                drawn.append(k)
            if k in slow:
                time.sleep(0.001)
            if k in failing:
                raise error(k)
            return f"sample {k}"

        samples: list[str | None] = [None] * n
        raised = None
        lowest = min(failing, default=n)
        if threads is None:  # a cold store's draws outside a run
            prompt = PromptDocument(kind="prog", text="def f():\n", instruction="f")
            with tempfile.TemporaryDirectory() as root:
                try:
                    read_through(root, prompt, SamplingConfig(num_samples=n), None,
                                 lambda prompt, config: draw)
                except BaseException as exc:
                    raised = exc
                samples = json.loads((Path(root) / prompt.content_hash / "prog" / "0.json")
                                     .read_text(encoding="utf-8"))["samples"]
            assert samples == [f"sample {k}" for k in range(lowest)] + [None] * (n - lowest)
        else:
            with harness.RequestPool(threads) as pool:
                try:
                    pool.fill(draw, list(range(n)), samples)
                except BaseException as exc:
                    raised = exc
        if failing:
            assert type(raised) is error and raised.args == (lowest,)
        else:
            assert raised is None
        assert samples[:lowest] == [f"sample {k}" for k in range(lowest)]
        assert all(samples[k] is None for k in failing)
        if threads in (None, 1):
            assert drawn == list(range(min(lowest + 1, n)))
        assert len(drawn) == len(set(drawn))

    def test_a_pool_whose_thread_fails_to_start_joins_the_others(self, monkeypatch):
        start = threading.Thread.start
        calls = [0]

        def third_fails(thread):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("can't start new thread")
            start(thread)

        threads = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", third_fails)
        with pytest.raises(RuntimeError, match="can't start"):
            harness.RequestPool(4)
        monkeypatch.undo()
        assert calls[0] == 3
        assert threading.active_count() == threads


class TestAtomicWrite:
    def test_a_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "new" / "summary.txt"
        atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, "a lone surrogate \ud800 cannot be encoded")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in path.parent.iterdir()] == ["summary.txt"]

    def test_the_file_gets_the_mode_of_a_plain_write(self, tmp_path):
        atomic_write(tmp_path / "atomic.txt", "x")
        (tmp_path / "plain.txt").write_text("x", encoding="utf-8")
        modes = {os.stat(tmp_path / name).st_mode for name in ("atomic.txt", "plain.txt")}
        assert len(modes) == 1

    def test_a_cold_path_costs_one_mkdir_per_missing_directory(self, tmp_path, monkeypatch):
        """A cold store file's prompt-hash and stage directories: no mkdir is
        tried before its parent exists."""
        made: list[str] = []
        mkdir = os.mkdir

        def counted(path, *args, **kwargs):
            made.append(os.fspath(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", counted)
        atomic_write(tmp_path / "hash" / "prog" / "7.json", "{}\n")
        assert made == [str(tmp_path / "hash"), str(tmp_path / "hash" / "prog")]
        assert (tmp_path / "hash" / "prog" / "7.json").read_text(encoding="utf-8") == "{}\n"


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(42, 0, "task", "prog")
        assert a == derive_seed(42, 0, "task", "prog")
        others = {derive_seed(42, rep, "task", "prog") for rep in range(10)}
        assert len(others) == 10
        assert derive_seed(42, 0, "task", "prog") != derive_seed(42, 0, "task", "reorder")
