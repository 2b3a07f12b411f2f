"""End-to-end integration tests across subsystem boundaries.

Each test exercises a realistic pipeline through several packages:
parse → merge → resolve → store → query → rules → write.
"""

import pytest

from repro.bibtex import dataset_to_bibtex, parse_bib_source
from repro.core.expand import expand_data
from repro.core.objects import Atom, Marker
from repro.json_codec import dumps_dataset, loads_dataset
from repro.merge import (
    MergeEngine,
    MergeSpec,
    by_attribute,
    numeric_extreme,
    resolve_dataset,
)
from repro.query import Eq, Exists, Query, run_query
from repro.rules import Engine, parse_program
from repro.schema import infer_schema, suggest_key
from repro.store import Database, blocked_union
from repro.text import format_dataset, parse_dataset
from repro.web import pages_to_dataset
from repro.workloads import (
    BibWorkloadSpec,
    WebWorkloadSpec,
    generate_site,
    generate_workload,
)

ALICE = """
@Article{oracle80, title = "Oracle", author = "Bob King and others",
         year = 1980}
@Article{ingres, title = "Ingres", author = "Sam Oak", journal = "TODS"}
"""
BOB = """
@Article{oracle81, title = "Oracle", author = "King, Bob and Tom Fox",
         year = 1981, journal = "IS"}
@Article{datalog, title = "Datalog", author = "Ann Law", year = 1978}
"""


class TestBibliographyPipeline:
    """parse → merge → resolve → write → re-parse."""

    def test_full_round(self, tmp_path):
        engine = (MergeEngine(MergeSpec(default_key={"title"}))
                  .add_source("alice", parse_bib_source(ALICE))
                  .add_source("bob", parse_bib_source(BOB)))
        result = engine.merge()
        assert result.stats.output_data == 3
        assert result.stats.conflicts == 1  # the year

        resolved, remaining = resolve_dataset(
            result.dataset, by_attribute({"year": numeric_extreme("max")}))
        assert remaining == []

        text = dataset_to_bibtex(resolved)
        reparsed = parse_bib_source(text)
        assert len(reparsed) == 3
        oracle = reparsed.find("oracle80+oracle81")
        assert oracle is not None
        assert oracle.object["year"] == Atom(1981)
        # Name-order variants normalized, partial list absorbed.
        authors = oracle.object["author"]
        assert Atom("Bob King") in authors
        assert Atom("Tom Fox") in authors

    def test_merge_then_query_then_rules(self):
        merged = parse_bib_source(ALICE).union(
            parse_bib_source(BOB), {"type", "title"})

        # Query layer.
        journal_titles = (Query(merged)
                          .where(Exists("journal")).values("title"))
        assert Atom("Oracle") in journal_titles
        assert Atom("Ingres") in journal_titles

        # Rules layer over the same data.
        rules = Engine(parse_program("""
            disputed(T) :- entry(M, [title => T, year => Y]),
                           member(A, Y), member(B, Y), A != B.
        """))
        rules.load_dataset("entry", merged)
        disputed = {row[0] for row in rules.facts("disputed")}
        assert disputed == {Atom("Oracle")}


class TestFormatBridges:
    """Every format pair round-trips through the model."""

    def test_bib_json_text_round_robin(self):
        original = parse_bib_source(ALICE)
        as_json = dumps_dataset(original)
        from_json = loads_dataset(as_json)
        as_text = format_dataset(from_json, indent=2)
        from_text = parse_dataset(as_text)
        assert from_text == original
        back_to_bib = dataset_to_bibtex(from_text)
        assert parse_bib_source(back_to_bib) == original

    def test_workload_survives_every_format(self):
        workload = generate_workload(BibWorkloadSpec(
            entries=40, sources=1, seed=5))
        source = workload.sources[0]
        assert loads_dataset(dumps_dataset(source)) == source
        assert parse_dataset(format_dataset(source)) == source
        assert parse_bib_source(dataset_to_bibtex(source)) == source


class TestStorePipeline:
    def test_ingest_save_load_query(self, tmp_path):
        workload = generate_workload(BibWorkloadSpec(
            entries=60, sources=2, overlap=0.4, conflict_rate=0.2,
            seed=3))
        s1, s2 = workload.sources
        database = Database(s1)
        database.merge_in(s2, workload.key)
        assert database.snapshot() == blocked_union([s1, s2], workload.key)

        path = tmp_path / "library.json"
        database.save(path)
        loaded = Database.load(path)
        assert loaded.snapshot() == database.snapshot()

        hits = run_query('select title where exists year',
                         loaded.snapshot())
        assert len(hits) > 0

    def test_schema_guides_the_merge_key(self):
        workload = generate_workload(BibWorkloadSpec(
            entries=80, sources=2, overlap=0.4, conflict_rate=0.0,
            partial_author_rate=0.0, null_rate=0.0, seed=8))
        s1, s2 = workload.sources
        schema = infer_schema(s1)
        for class_name in schema.class_names():
            suggested = suggest_key(schema.classes[class_name])
            assert "title" in suggested
        merged = s1.union(s2, {"type", "title"})
        assert len(merged) == workload.expected_result_size()


class TestWebPipeline:
    def test_site_to_model_to_rules(self):
        site = generate_site(WebWorkloadSpec(pages=6, seed=4))
        dataset = pages_to_dataset(site)

        # Expansion inlines one level of links.
        home = dataset.find("page0.html")
        expanded = expand_data(home, dataset, depth=1)
        assert expanded.marker == Marker("page0.html")

        # Rules can traverse the link structure: every marker mentioned
        # inside a page object is a link, and reach/2 is its closure.
        from repro.core.visitor import walk

        link_facts = Engine()
        for datum in dataset:
            for _, node in walk(datum.object):
                if isinstance(node, Marker):
                    link_facts.assert_fact("link", datum.marker, node)
        link_facts.add_program(parse_program("""
            reach(P, Q) :- link(P, Q).
            reach(P, R) :- link(P, Q), reach(Q, R).
        """))
        reach = link_facts.facts("reach")
        assert reach  # the generator guarantees internal links
        for source, target in reach:
            assert isinstance(source, Marker)
            assert isinstance(target, Marker)


class TestCrossFormatQueryEquivalence:
    def test_same_query_same_answer_in_all_formats(self):
        original = parse_bib_source(ALICE + BOB)
        query = 'select title where year >= 1980'
        from_json = loads_dataset(dumps_dataset(original))
        from_text = parse_dataset(format_dataset(original))
        assert run_query(query, original) == run_query(query, from_json)
        assert run_query(query, original) == run_query(query, from_text)
