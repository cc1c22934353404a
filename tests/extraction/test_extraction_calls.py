"""Call-count guards for the per-source page set (machine-independent).

One cold run over the benchmark's 122 fetched pages used to call
``parse_html`` 524 times, walk every page for its record nodes 488 times
and run ``FieldRule.select`` 28,572 times: induction parsed the example
pages, every ``Wrapper.extract`` parsed the whole site again, and the
repairer extracted the site five or more times.  These tests pin the fix
by counting calls, not seconds, in the style of
``tests/resolution/test_scoring_calls.py``: one ``Wrangler._extract``
call parses each document it was handed once, lists the record nodes of
each page once per record path, and walks each record node once per
distinct ``(rel_path, index)`` — and the next call starts from nothing.
"""

import datetime
import random

import pytest

import repro.extraction.wrapper as wrapper_module
from repro import DataContext, MemoryDocumentSource, UserContext, Wrangler
from repro.datagen import TARGET_SCHEMA
from repro.datagen.htmlgen import (
    TEMPLATES,
    annotations_for,
    random_listings,
    render_site,
)
from repro.datagen.ontologies import product_ontology
from repro.extraction.wrapper import FieldRule, Pages, Wrapper


def rendered(template):
    listings = random_listings(50, random.Random(TEMPLATES.index(template)))
    return render_site(f"{template}shop", listings, template, page_size=10)


def wrangler_over(*sites, annotated=True):
    user = UserContext.precision_first("u", TARGET_SCHEMA)
    data = DataContext("products").with_ontology(product_ontology())
    wrangler = Wrangler(user, data, today=datetime.date(2016, 3, 15))
    for site in sites:
        wrangler.add_source(MemoryDocumentSource(site.name, site.pages))
        if annotated:
            wrangler.annotate_examples(site.name, annotations_for(site, 3))
    return wrangler


@pytest.fixture
def calls(monkeypatch):
    """What the three expensive steps were called on while the test runs:
    ``parsed`` html strings, ``listed`` ``(record_path, root)`` pairs and
    ``walked`` ``(record node, rel_path, index)`` triples."""
    seen = {"parsed": [], "listed": [], "walked": []}
    real_parse = wrapper_module.parse_html
    real_nodes, real_select = Wrapper.record_nodes, FieldRule.select

    def parse(html):
        seen["parsed"].append(html)
        return real_parse(html)

    def record_nodes(self, root):
        seen["listed"].append((self.record_path, root))
        return real_nodes(self, root)

    def select(self, record_node):
        seen["walked"].append((record_node, self.rel_path, self.index))
        return real_select(self, record_node)

    monkeypatch.setattr(wrapper_module, "parse_html", parse)
    monkeypatch.setattr(Wrapper, "record_nodes", record_nodes)
    monkeypatch.setattr(FieldRule, "select", select)
    return seen


class TestOneExtractCallReadsEachThingOnce:
    @pytest.mark.parametrize("step", ["probe", "acquire"])
    @pytest.mark.parametrize("annotated", [True, False])
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_counts(self, template, annotated, step, calls):
        site = rendered(template)
        wrangler = wrangler_over(site, annotated=annotated)
        source = wrangler.registry.get(site.name)
        table = wrangler._extract(source, step)
        handed = 2 if step == "probe" else len(site.pages)
        assert len(table) == handed * 10

        # Each document handed to the call is parsed, and parsed once.
        assert len(calls["parsed"]) == handed
        assert len(set(calls["parsed"])) == handed

        # Each page is walked for record nodes once per record path.
        paths = {path for path, __ in calls["listed"]}
        assert len(calls["listed"]) == handed * len(paths)
        assert len(set(calls["listed"])) == len(calls["listed"])

        # Each record node is walked once per distinct (rel_path, index),
        # however many rules, candidates and re-extractions read it.
        walked = calls["walked"]
        assert walked and len(set(walked)) == len(walked)
        nodes = {node for node, __, __ in walked}
        places = {(rel_path, index) for __, rel_path, index in walked}
        assert len(nodes) == len(table)
        assert len(walked) <= len(nodes) * len(places)

    def test_the_next_call_starts_from_nothing(self, calls):
        site = rendered("grid")
        wrangler = wrangler_over(site)
        source = wrangler.registry.get(site.name)
        wrangler._extract(source, "acquire")
        first = {name: len(seen) for name, seen in calls.items()}
        wrangler._extract(source, "acquire")
        # Nothing the first call parsed was still around: the second pays
        # for exactly the same work again.
        assert {name: len(seen) for name, seen in calls.items()} == {
            name: 2 * count for name, count in first.items()
        }

    def test_nothing_module_level_holds_a_page_set(self):
        import repro.core.wrangler as core_wrangler
        import repro.extraction.dom as dom
        import repro.extraction.induction as induction
        import repro.extraction.repair as repair

        site = rendered("messy")
        wrangler_over(site).run()
        holders = (Pages, dom.DomNode)
        for module in (dom, wrapper_module, induction, repair, core_wrangler):
            held = [
                name for name, value in vars(module).items()
                if isinstance(value, holders)
            ]
            assert held == [], f"{module.__name__} keeps {held}"


class TestAWholeRunParsesWhatItFetched:
    def test_parses_equal_documents_handed_to_extract(self, calls, monkeypatch):
        sites = [rendered(template) for template in TEMPLATES]
        wrangler = wrangler_over(*sites)
        handed = []
        real_payload = Wrangler._payload

        def payload(self, source, step):
            value = real_payload(self, source, step)
            handed.append(len(value))
            return value

        monkeypatch.setattr(Wrangler, "_payload", payload)
        result = wrangler.run()
        assert len(result.table) > 0
        # Probe sample + full fetch of every site: a page that was probed
        # and then acquired is two fetched documents, parsed twice.
        assert sorted(handed) == [2, 2, 2, 5, 5, 5]
        assert len(calls["parsed"]) == sum(handed)
