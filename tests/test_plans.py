import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votetree.errors import EmptyCommandPoolError
from votetree.plans import (
    Command,
    extract_unique_commands,
    parse_plan_text,
    render_plan,
    split_corpus,
)

from conftest import plan_of

DATA = Path(__file__).parent / "data"


class TestNormalize:
    def test_case_whitespace_quotes(self):
        c = Command.parse("Grab( ' Salmon ' )")
        assert c == Command("grab", ("salmon",))

    def test_walk_alias(self):
        assert Command.parse("walk(kitchen)") == Command("find", ("kitchen",))

    def test_put_alias(self):
        c = Command.parse("put(plate, table)")
        assert c == Command("putback", ("plate", "table"))

    def test_unknown_action_passes_through(self):
        assert Command.parse("flomp(cup)") == Command("flomp", ("cup",))

    def test_idempotence(self):
        first = Command.parse("Walk('Wine Glass')")
        assert first == Command("find", ("wine_glass",))
        assert Command.parse(first.canonical_form) == first

    def test_canonical_form(self):
        assert Command("putin", ("salmon", "microwave")).canonical_form == "putin(salmon,microwave)"

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            Command("find", ())
        with pytest.raises(ValueError):
            Command("find", ("a", "b", "c"))

    def test_empty_action_rejected(self):
        with pytest.raises(ValueError, match="^command has an empty action token$"):
            Command("", ("x",))


class TestParse:
    def test_simple_extraction(self):
        plan, diags = parse_plan_text("def microwave_salmon():\n  find('salmon')\n  grab('salmon')")
        assert [c.canonical_form for c in plan] == ["find(salmon)", "grab(salmon)"]
        assert diags == []

    def test_assertion_recovery_branch_kept(self):
        text = "assert('fridge' is 'opened') else: open('fridge')\nclose('fridge')"
        plan, _ = parse_plan_text(text)
        assert [c.canonical_form for c in plan] == ["open(fridge)", "close(fridge)"]

    def test_empty_string(self):
        plan, diags = parse_plan_text("")
        assert plan == ()
        assert [d.code for d in diags] == ["no_commands_found"]

    def test_unknown_action_flagged(self):
        plan, diags = parse_plan_text("flomp('cup')", known_actions=frozenset({"find"}))
        assert plan[0].canonical_form == "flomp(cup)"
        assert any(d.code == "unknown_action" for d in diags)

    def test_unparseable_line_diagnostic(self):
        plan, diags = parse_plan_text("this line has no call\nfind('tv')")
        assert len(plan) == 1
        assert any(d.code == "unparseable_line" and d.line_no == 1 for d in diags)

    @pytest.mark.parametrize("case", sorted(p.stem for p in (DATA / "parser_golden").glob("*.txt")))
    def test_golden_suite(self, case):
        text = (DATA / "parser_golden" / f"{case}.txt").read_text(encoding="utf-8")
        golden = (DATA / "parser_golden" / f"{case}.golden").read_text(encoding="utf-8")
        plan, _ = parse_plan_text(text)
        rendered = render_plan(plan)
        expected = golden.strip("\n")
        assert rendered == expected, f"{case}: got {rendered!r}"

    def test_round_trip(self, bundle):
        rng = random.Random(11)
        actions1 = [n for n, s in bundle.catalog.items() if s.arity == 1]
        actions2 = [n for n, s in bundle.catalog.items() if s.arity == 2]
        objects = ["apple", "fridge", "mug", "sink"]
        for _ in range(100):
            commands = []
            for _ in range(rng.randint(1, 10)):
                if rng.random() < 0.3:
                    commands.append(Command(rng.choice(actions2), tuple(rng.sample(objects, 2))))
                else:
                    commands.append(Command(rng.choice(actions1), (rng.choice(objects),)))
            plan = tuple(commands)
            parsed, diags = parse_plan_text(render_plan(plan))
            assert parsed == plan
            assert diags == []


# Lines a generator may emit: commands, scaffolding, comments and garbage.
PLAN_LINES = st.one_of(
    st.sampled_from([
        "find('salmon')", "  grab('salmon')  # take it", "walk(Kitchen)", "put('plate', 'table')",
        "def microwave_salmon():", "assert('fridge' is 'opened') else: open('fridge')",
        "else: close('fridge')", "assert('salmon' in 'hand')", "# comment", "pass", "return", "",
        "flomp('cup')", "find()", "find(a, b, c)", "find('a') grab('a')", "no call on this line",
        "find(' \"Wine  Glass\" ')",
    ]),
    st.text(alphabet="abfind()',\" #:\t_", max_size=30),
    st.text(max_size=30),
)
PLAN_TEXTS = st.lists(PLAN_LINES, max_size=12).map("\n".join)


KNOWN_ACTIONS = st.sampled_from([None, frozenset({"find", "grab", "open", "close", "putback"})])


class TestLineMemo:
    @given(samples=st.lists(st.tuples(PLAN_TEXTS, KNOWN_ACTIONS), max_size=8))
    def test_shared_memo_matches_fresh_parse(self, samples):
        memo: dict = {}
        for text, known in samples:
            shared = parse_plan_text(text, known, line_memo=memo)
            assert shared == parse_plan_text(text, known)


class TestParserProperties:
    @given(text=st.one_of(st.text(), PLAN_TEXTS), known=KNOWN_ACTIONS)
    def test_never_raises_on_arbitrary_text(self, text, known):
        plan, diagnostics = parse_plan_text(text, known)
        if not plan:
            assert diagnostics[-1].code == "no_commands_found"


class TestCorpusSplit:
    def test_split_on_sample_separators(self):
        text = "--- sample 0 ---\nfind('a')\n--- sample 1 ---\nfind('b')\n"
        parts = split_corpus(text)
        assert len(parts) == 2
        assert "find('a')" in parts[0] and "find('b')" in parts[1]

    def test_plain_document_is_one_plan(self):
        assert split_corpus("find('a')\ngrab('a')") == ["find('a')\ngrab('a')"]

    def test_text_before_the_first_separator_is_a_plan(self):
        assert split_corpus("find(a)\n--- sample 1 ---\nfind(b)\n") == ["find(a)\n", "\nfind(b)\n"]

    def test_whitespace_before_the_first_separator_is_dropped(self):
        assert split_corpus(" \n\t\n--- sample 1 ---\nfind(b)\n") == ["\nfind(b)\n"]


class TestExtractUniqueCommands:
    def test_union_of_plan_commands(self):
        a, b, c = Command("a", ("x",)), Command("b", ("x",)), Command("c", ("x",))
        plans = [(a, b), (b, c)]
        pool = extract_unique_commands(plans)
        assert {c.canonical_form for c in pool} == {"a(x)", "b(x)", "c(x)"}

    def test_thirty_identical_plans(self):
        plan = plan_of("find(salmon)", "grab(salmon)", "find(salmon)")
        pool = extract_unique_commands([plan] * 30)
        assert [c.canonical_form for c in pool] == ["find(salmon)", "grab(salmon)"]

    def test_all_empty_plans_raise(self):
        with pytest.raises(EmptyCommandPoolError):
            extract_unique_commands([(), ()])

    def test_order_independence(self):
        rng = random.Random(3)
        plans = [
            plan_of(*(f"act{rng.randint(0, 5)}(obj{rng.randint(0, 3)})"
                      for _ in range(rng.randint(1, 8))))
            for _ in range(20)
        ]
        pool = extract_unique_commands(plans)
        shuffled = plans[:]
        rng.shuffle(shuffled)
        pool2 = extract_unique_commands(shuffled)
        assert [c.canonical_form for c in pool] == [c.canonical_form for c in pool2]

    def test_dedup_soundness(self):
        rng = random.Random(5)
        plans = [
            plan_of(*(f"a{rng.randint(0, 4)}(o)" for _ in range(rng.randint(1, 6))))
            for _ in range(10)
        ]
        pool = extract_unique_commands(plans)
        assert len(pool) <= sum(len(p) for p in plans)
        all_commands = {c.canonical_form for p in plans for c in p}
        assert {c.canonical_form for c in pool} <= all_commands

    def test_corpus_fixture_matches_line_scan_oracle(self):
        """Brute-force oracle: grep action-call lines, normalize, dedup."""
        text = (DATA / "corpus_microwave_salmon.txt").read_text(encoding="utf-8")
        bodies = split_corpus(text)
        assert len(bodies) == 30

        call_re = re.compile(r"^\s*([a-z]+)\(([^)]*)\)\s*$")
        oracle: set[str] = set()
        for body in bodies:
            for line in body.splitlines():
                line = line.split("#", 1)[0].rstrip()
                if line.lstrip().startswith("def "):
                    continue
                m = call_re.match(line)
                if not m:
                    continue
                action = m.group(1)
                args = [a.strip().strip("'") for a in m.group(2).split(",") if a.strip()]
                oracle.add(f"{action}({','.join(args)})")

        plans = []
        for body in bodies:
            plan, _ = parse_plan_text(body)
            plans.append(plan)
        pool = extract_unique_commands(plans)
        assert {c.canonical_form for c in pool} == oracle


class TestPlanInvariants:
    def test_generated_may_be_empty(self):
        assert parse_plan_text("# no calls here")[0] == ()
