"""Tests for the HTML parser and DOM."""

import pytest

from repro.errors import ExtractionError
from repro.extraction.dom import parse_html

HTML = """
<html><body>
  <div class="listing">
    <div class="product"><h2 class="title">TV One</h2><span class="price">$9</span></div>
    <div class="product"><h2 class="title">TV Two</h2><span class="price">$8</span></div>
  </div>
  <img src="x.png">
  <p>footer text</p>
</body></html>
"""


class TestParse:
    def test_empty_raises(self):
        with pytest.raises(ExtractionError):
            parse_html("   ")

    def test_builds_tree(self):
        root = parse_html(HTML)
        assert root.tag == "#document"
        body = root.find("body")
        assert body is not None

    def test_void_tags_do_not_swallow_siblings(self):
        root = parse_html(HTML)
        assert root.find("p") is not None
        img = root.find("img")
        assert img is not None and not img.children

    def test_unclosed_tags_tolerated(self):
        root = parse_html("<div><p>one<p>two</div>")
        assert "one" in root.text() and "two" in root.text()

    def test_unmatched_close_ignored(self):
        root = parse_html("<div>x</span></div>")
        assert root.text() == "x"


class TestNavigation:
    @pytest.fixture
    def root(self):
        return parse_html(HTML)

    def test_find_all_by_class(self, root):
        assert len(root.find_all(class_="product")) == 2
        assert len(root.find_all("span", "price")) == 2

    def test_text_normalises_whitespace(self, root):
        product = root.find_all(class_="product")[0]
        assert product.text() == "TV One $9"

    def test_signature(self, root):
        product = root.find(class_="product")
        assert product.signature == "div.product"
        assert root.find("p").signature == "p"

    def test_path(self, root):
        title = root.find("h2")
        path = title.path()
        assert path[-1] == "h2.title"
        assert "div.product" in path
        assert path[0] == "html"

    def test_depth_and_ancestors(self, root):
        title = root.find("h2")
        ancestors = list(title.ancestors())
        assert ancestors[0].signature == "div.product"
        assert title.depth() == len(ancestors)

    def test_walk_counts(self, root):
        element_count = sum(1 for __ in root.elements())
        total_count = sum(1 for __ in root.walk())
        assert total_count > element_count  # text nodes exist
