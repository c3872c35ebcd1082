"""From raw generated plan text to the unique command pool.

Shows the program-style grammar the parser accepts (headers, comments,
assertion blocks with recovery branches, aliases), then pools several
samples into the deduplicated command set that seeds the reorder stage.
"""

from votetree import extract_unique_commands, parse_plan_text, render_plan

sample = """\
def microwave_salmon():
    # 1: fetch the salmon
    walk('salmon')
    grab('salmon')
    assert('microwave' is 'opened') else: open('microwave')
    putin('salmon', 'microwave')
    close('microwave')
    switchon('microwave')
"""

plan, diagnostics = parse_plan_text(sample)
print("parsed commands:")
print(render_plan(plan))
print("diagnostics:", [d.code for d in diagnostics] or "none")
# Note: the walk alias became find, the assertion condition was dropped,
# and the recovery-branch open(...) was kept.

# A degenerate sample parses to an empty plan plus a diagnostic, never an error.
empty, diags = parse_plan_text("I could not produce a plan, sorry!")
print("\ndegenerate sample ->", len(empty.commands), "commands,",
      [d.code for d in diags])

# Pool three varied samples.
texts = [
    sample,
    "find('salmon')\ngrab('salmon')\nfind('microwave')\nputin('salmon', 'microwave')\n",
    "find('fridge')\nopen('fridge')\nfind('salmon')\ngrab('salmon')\n",
]
plans = [parse_plan_text(t)[0] for t in texts]
pool = extract_unique_commands(plans)
print(f"\nunique command pool ({len(pool)} commands):")
for form in pool.canonical_forms:
    print(f"  {form}")
