"""What the docs cite of ``ROADMAP.md`` exists there.

README.md, DESIGN.md and ``docs/*.md`` point at ROADMAP items as
"ROADMAP item 9" or "ROADMAP 9(c)". Items are renumbered only by
retiring them to a stub, so a citation is stale when its number names
no entry of the numbered list, or when it names a part, "(c)", that
the item records as done.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: "ROADMAP item 12(a)", "ROADMAP items 4", "ROADMAP 9(c)"
CITATION = re.compile(r"ROADMAP\s+(?:items?\s+)?(\d+)(?:\(([a-z])\))?")


def roadmap_items(text):
    """Item number → its text (whitespace collapsed), for every entry of
    the numbered list under "## Open items", retired stubs included."""
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    # a shorter numbered list (the work order) comes first in the
    # section: the items, which follow it, overwrite its numbers
    items = {}
    for match in re.finditer(r"^(\d+)\. (.*?)(?=^\d+\. |\Z)", section,
                             re.M | re.S):
        items[int(match[1])] = " ".join(match[2].split())
    return items


def stale_citations(text, items):
    """The citations in ``text`` that name no item, or a part of one that
    the item says is done."""
    stale = []
    for match in CITATION.finditer(" ".join(text.split())):
        number, part = int(match[1]), match[2]
        body = items.get(number)
        if body is None or (part and f"({part}) done" in body):
            stale.append(match[0])
    return stale


def _docs():
    return [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]


def test_every_roadmap_citation_in_the_docs_resolves():
    items = roadmap_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert {1, 10, 24} <= set(items)  # an open item, a stub, the last
    found = 0
    stale = []
    for path in _docs():
        text = path.read_text(encoding="utf-8")
        found += len(CITATION.findall(" ".join(text.split())))
        stale += [f"{path.relative_to(ROOT)}: {c}"
                  for c in stale_citations(text, items)]
    assert found, "no citation found: the pattern no longer matches"
    assert stale == []


def test_a_bad_citation_is_reported():
    items = roadmap_items(
        "# R\n\n## Open items\n\n1. **One** *((a) done in PR 3)*\n"
        "   - (b) open\n2. *(Retired: done in PR 4.)*\n\n## Recent\n\n"
        "3. not an item\n"
    )
    assert set(items) == {1, 2}
    text = ("ROADMAP item 1(b) and ROADMAP 2 hold; ROADMAP item 3, "
            "ROADMAP\n    item 1(a) and ROADMAP 7(c) do not")
    assert stale_citations(text, items) == [
        "ROADMAP item 3", "ROADMAP item 1(a)", "ROADMAP 7(c)",
    ]
