"""A ``DomNode`` is the node it is, not the shape it has.

Regression: ``DomNode`` was a plain ``@dataclass``, so ``==`` compared
``children`` and ``parent`` field by field — on two same-shaped siblings
that recurses child → parent → child until ``RecursionError`` — and
nodes were unhashable.  ``induce_wrapper``'s ``record_node in
nodes.values()`` walked into exactly that.
"""

from repro.extraction.dom import parse_html

TWINS = "<ul><li class='x'><b>a</b></li><li class='x'><b>a</b></li></ul>"


def test_same_shaped_siblings_are_different_nodes():
    first, second = parse_html(TWINS).find_all("li")
    assert first.signature == second.signature
    assert first.text() == second.text()
    assert first != second
    assert first == first
    assert second not in [first]
    assert second in [first, second]


def test_nodes_hash_by_identity():
    first, second = parse_html(TWINS).find_all("li")
    assert len({first, second, first}) == 2
    assert {first: "a", second: "b"}[second] == "b"
