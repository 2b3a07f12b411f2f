"""Both engine fold strategies must produce identical results.

``MergeSpec.strategy`` only reorganizes the Definition 12 pairing work
— naive scans or the k-way signature-blocked pipeline. These tests run
the same sources under both strategies and compare the outcomes
structurally; the ``"naive"`` strategy is the definitional reference.
"""

import pytest

from repro.core.builder import dataset, tup
from repro.core.errors import MergeError
from repro.merge.engine import MergeEngine
from repro.merge.spec import MergeSpec
from repro.properties import ObjectGenerator


def build_engine(spec, sources):
    engine = MergeEngine(spec)
    for index, source in enumerate(sources):
        engine.add_source(f"s{index}", source)
    return engine


def spec_with(**overrides):
    return MergeSpec(default_key={"title"}, **overrides)


def merge_under(strategy, sources):
    spec = spec_with(strategy=strategy)
    return build_engine(spec, sources).merge()


def workload_sources(sources=4, entries=100, seed=17):
    from repro.workloads import BibWorkloadSpec, generate_workload

    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=sources, overlap=0.4,
        conflict_rate=0.3, partial_author_rate=0.2, seed=seed))
    return workload.sources


class TestStrategyEquivalence:
    def test_example6_all_strategies(self):
        from tests.core.test_data import example6_sources

        sources = list(example6_sources())
        reference = merge_under("naive", sources)
        result = merge_under("blocked", sources)
        assert result.dataset == reference.dataset
        assert result.stats == reference.stats

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sources_all_strategies(self, seed):
        generator = ObjectGenerator(seed=seed)
        sources = [generator.dataset(8) for _ in range(4)]
        reference = merge_under("naive", sources)
        assert merge_under("blocked", sources).dataset == \
            reference.dataset

    def test_workload_all_strategies(self):
        sources = workload_sources()
        reference = merge_under("naive", sources)
        assert merge_under("blocked", sources).dataset == \
            reference.dataset

    def test_per_class_keys_respected(self):
        spec_kwargs = dict(
            per_class={"Article": frozenset({"title", "year"})})
        sources = [
            dataset(("a1", tup(type="Article", title="X", year=1999)),
                    ("w1", tup(type="Web", title="X", url="u"))),
            dataset(("a2", tup(type="Article", title="X", year=2000)),
                    ("w2", tup(type="Web", title="X", note="n"))),
        ]
        reference = build_engine(
            spec_with(strategy="naive", **spec_kwargs), sources).merge()
        result = build_engine(
            spec_with(strategy="blocked", **spec_kwargs), sources).merge()
        assert result.dataset == reference.dataset

    def test_intersect_and_subtract_match_naive(self):
        from tests.core.test_data import example6_sources

        sources = list(example6_sources())
        naive = build_engine(spec_with(strategy="naive"), sources)
        fast = build_engine(spec_with(strategy="blocked"), sources)
        assert naive.intersect_all() == fast.intersect_all()
        assert naive.subtract("s0", "s1") == fast.subtract("s0", "s1")


class TestSpecValidation:
    def test_unknown_strategy_rejected(self):
        for strategy in ("turbo", "indexed"):
            with pytest.raises(MergeError, match="strategy"):
                spec_with(strategy=strategy)

    def test_defaults(self):
        spec = spec_with()
        assert spec.strategy == "blocked"


class TestCli:
    def test_merge_strategy_flags(self, tmp_path, capsys):
        from repro.cli import main

        first = tmp_path / "a.bib"
        second = tmp_path / "b.bib"
        first.write_text(
            "@article{a, title={X}, author={Alice}}\n")
        second.write_text(
            "@article{b, title={X}, year={1999}}\n")
        outputs = []
        for extra in ([], ["--strategy", "naive"],
                      ["--strategy", "blocked"]):
            out = tmp_path / f"out{len(outputs)}.json"
            status = main(["merge", str(first), str(second),
                           "--to", "json", "-o", str(out)] + extra)
            assert status == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]
        with pytest.raises(SystemExit) as excinfo:
            main(["merge", str(first), str(second),
                  "--strategy", "indexed"])
        assert excinfo.value.code == 2
