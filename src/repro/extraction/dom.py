"""A small DOM built on the standard library's HTML parser.

Web data extraction (Section 2.2) needs a document model: wrappers select
repeating record nodes and field nodes inside them.  :class:`DomNode` keeps
parents, children, tag/class signatures, and absolute paths, which is all
the wrapper-induction algorithm requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterator

from repro.errors import ExtractionError

__all__ = ["DomNode", "parse_html"]

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


@dataclass(eq=False, slots=True)
class DomNode:
    """One element (or text run) in the parsed document tree.

    Immutable once :func:`parse_html` returns: the builder is the only
    writer, so ``classes`` / ``signature`` are computed at construction
    and ``text()`` / ``path()`` are memoised on the node.  Nodes compare
    by identity (two same-shaped siblings are different nodes) and are
    hashable.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["DomNode"] = field(default_factory=list)
    parent: "DomNode | None" = None
    text_content: str = ""
    #: The element's CSS classes.
    classes: tuple[str, ...] = field(init=False)
    #: ``tag.first-class`` — the shape used to align nodes across pages.
    signature: str = field(init=False)
    _text: str | None = field(init=False, default=None, repr=False)
    _path: tuple[str, ...] | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.classes = tuple(self.attrs.get("class", "").split())
        self.signature = (
            f"{self.tag}.{self.classes[0]}" if self.classes else self.tag
        )

    @property
    def is_text(self) -> bool:
        """Whether this node is a text run rather than an element."""
        return self.tag == "#text"

    def text(self) -> str:
        """All text beneath this node, whitespace-normalised."""
        text = self._text
        if text is None:
            if self.tag == "#text":
                text = " ".join(self.text_content.split())
            else:
                parts = [child.text() for child in self.children]
                text = " ".join(part for part in parts if part)
            self._text = text
        return text

    def walk(self) -> Iterator["DomNode"]:
        """This node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def elements(self) -> Iterator["DomNode"]:
        """All element (non-text) nodes beneath and including this one."""
        for node in self.walk():
            if node.tag != "#text":
                yield node

    def find_all(
        self, tag: str | None = None, class_: str | None = None
    ) -> list["DomNode"]:
        """All descendant elements matching ``tag`` and/or ``class_``."""
        matches = []
        for node in self.elements():
            if node is self:
                continue
            if tag is not None and node.tag != tag:
                continue
            if class_ is not None and class_ not in node.classes:
                continue
            matches.append(node)
        return matches

    def find(self, tag: str | None = None, class_: str | None = None) -> "DomNode | None":
        """The first matching descendant element, or ``None``."""
        found = self.find_all(tag, class_)
        return found[0] if found else None

    def path(self) -> tuple[str, ...]:
        """Absolute signature path from the root to this node."""
        path = self._path
        if path is None:
            if self.tag == "#document":
                path = ()
            else:
                path = self.parent.path() if self.parent is not None else ()
                if self.tag != "#text":
                    path += (self.signature,)
            self._path = path
        return path

    def path_below(self, ancestor: "DomNode") -> tuple[str, ...]:
        """Signature path from just below ``ancestor`` down to this node."""
        steps: list[str] = []
        node: DomNode | None = self
        while node is not None and node is not ancestor:
            if node.tag != "#text":
                steps.append(node.signature)
            node = node.parent
        return tuple(reversed(steps))

    def ends_path(
        self, suffix: tuple[str, ...], below: "DomNode | None" = None
    ) -> bool:
        """Whether this element's signature path ends with ``suffix`` —
        the path below ``below``, or the absolute one."""
        node: DomNode | None = self
        for step in reversed(suffix):
            if node is None or node is below or node.signature != step:
                return False
            node = node.parent
        return True

    def descendants_at(self, rel_path: tuple[str, ...]) -> list["DomNode"]:
        """The descendant elements whose path below this node ends with
        ``rel_path``, in document order."""
        last = rel_path[-1]
        return [
            node
            for node in self.elements()
            if node.signature == last
            and node is not self
            and node.ends_path(rel_path, self)
        ]

    def ancestors(self) -> Iterator["DomNode"]:
        """All ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Distance from the document root."""
        return sum(1 for __ in self.ancestors())


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode("#document")
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DomNode(tag, {k: (v or "") for k, v in attrs})
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DomNode(tag, {k: (v or "") for k, v in attrs})
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag: str) -> None:
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return
        # Unmatched close tag: tolerate, real web pages are messy.

    def handle_data(self, data: str) -> None:
        if not data.strip():
            return
        node = DomNode("#text", text_content=data)
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)


def parse_html(html: str) -> DomNode:
    """Parse an HTML string into a :class:`DomNode` tree.

    Tolerant of unclosed tags (like browsers are); raises
    :class:`ExtractionError` only for empty input.
    """
    if not html or not html.strip():
        raise ExtractionError("cannot parse empty document")
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root
