"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

ALICE = """
@Article{B80, title = "Oracle", author = "Bob and others", year = 1980}
@Article{S78, title = "Ingres", author = "Sam", journal = "TODS"}
"""
BOB = """
@Article{B82, title = "Oracle", author = "Bob and Tom", year = 1981,
         journal = "IS"}
"""


@pytest.fixture
def bib_files(tmp_path):
    a = tmp_path / "a.bib"
    b = tmp_path / "b.bib"
    a.write_text(ALICE)
    b.write_text(BOB)
    return a, b


class TestMerge:
    def test_merge_to_bibtex(self, bib_files, capsys):
        a, b = bib_files
        assert main(["merge", str(a), str(b)]) == 0
        captured = capsys.readouterr()
        assert "@Article{B80+B82," in captured.out
        assert "Bob and Tom" in captured.out          # ⟨Bob⟩ absorbed
        assert "conflict" in captured.err             # year 1980|1981
        assert "1 combined" in captured.err

    def test_merge_to_text_output_file(self, bib_files, tmp_path, capsys):
        a, b = bib_files
        out = tmp_path / "merged.txt"
        assert main(["merge", str(a), str(b), "--to", "text",
                     "-o", str(out)]) == 0
        content = out.read_text()
        assert "B80|B82" in content
        assert "1980|1981" in content

    def test_merge_custom_key(self, bib_files, capsys):
        a, b = bib_files
        assert main(["merge", str(a), str(b), "--key", "title,year",
                     "--to", "text"]) == 0
        captured = capsys.readouterr()
        # Years differ, so the Oracle entries no longer combine.
        assert "B80|B82" not in captured.out

    def test_merge_on_conflict_error(self, bib_files, capsys):
        a, b = bib_files
        status = main(["merge", str(a), str(b), "--on-conflict", "error"])
        assert status == 2
        assert "error:" in capsys.readouterr().err


class TestBinaryOps:
    def test_diff(self, bib_files, capsys):
        a, b = bib_files
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Ingres" in out          # only in the first source

    def test_intersect(self, bib_files, capsys):
        a, b = bib_files
        assert main(["intersect", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Oracle" in out
        assert "Ingres" not in out


class TestConvert:
    def test_bib_to_json_round_trip(self, bib_files, tmp_path, capsys):
        a, _ = bib_files
        as_json = tmp_path / "a.json"
        assert main(["convert", str(a), "--to", "json",
                     "-o", str(as_json)]) == 0
        payload = json.loads(as_json.read_text())
        assert payload["kind"] == "dataset"
        back = tmp_path / "back.bib"
        assert main(["convert", str(as_json), "--to", "bib",
                     "-o", str(back)]) == 0
        assert "Bob and others" in back.read_text()

    def test_format_forced(self, tmp_path, capsys):
        weird = tmp_path / "data.unknown"
        weird.write_text('k : [type => "t", title => "x"];')
        assert main(["convert", str(weird), "--from", "text",
                     "--to", "json"]) == 0

    def test_unknown_extension_fails_cleanly(self, tmp_path, capsys):
        weird = tmp_path / "data.unknown"
        weird.write_text("irrelevant")
        assert main(["convert", str(weird)]) == 2
        assert "cannot infer format" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.bib")]) == 2


class TestQuery:
    def test_query_bib_file(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a),
                     'select title where exists journal']) == 0
        out = capsys.readouterr().out
        assert "Ingres" in out
        assert "Oracle" not in out

    def test_bad_query_fails_cleanly(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a), "select"]) == 2

    def test_malformed_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.bib"
        bad.write_text("@Article{k, title = {unbalanced}")
        assert main(["query", str(bad), "select *"]) == 2

    def test_aggregate_query(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a),
                     "select count(*), min(year)"]) == 0
        out = capsys.readouterr().out
        assert "count(*) = 2" in out
        assert "min(year) = 1980" in out

    def test_group_by_query(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a),
                     "select count(*) group by type"]) == 0
        out = capsys.readouterr().out
        assert 'group "Article":' in out
        assert "count(*) = 2" in out

    def test_aggregate_explain(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a), "select count(*) group by type",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "aggregate[" in out
        assert "actual groups: 1" in out

    def test_join_query(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a), "select * where exists year",
                     "--join", "select * where exists author",
                     "--on", "title"]) == 0
        out = capsys.readouterr().out
        assert "|x|" in out
        assert "Oracle" in out

    def test_join_explain(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a), "select * where exists year",
                     "--join", "select * where exists author",
                     "--on", "title", "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("join[hash] on title")
        assert "actual pairs:" in out

    def test_join_without_on_fails_cleanly(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["query", str(a), "select *",
                     "--join", "select *"]) == 2
        assert "--on" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_runs_selected_experiment(self, capsys):
        assert main(["experiments", "E7"]) == 0
        assert "REPRODUCED" in capsys.readouterr().out


class TestDescribe:
    def test_describe_bib_file(self, bib_files, capsys):
        a, _ = bib_files
        assert main(["describe", str(a)]) == 0
        out = capsys.readouterr().out
        assert "class Article" in out
        assert "suggested key for Article" in out


class TestChanges:
    def test_changes_between_versions(self, bib_files, capsys):
        a, b = bib_files
        assert main(["changes", str(a), str(b), "--key", "title"]) == 0
        out = capsys.readouterr().out
        assert "1 removed" in out      # Ingres only in the first file
        assert "changed" in out        # Oracle changed


class TestSync:
    def test_three_way_sync(self, bib_files, tmp_path, capsys):
        a, b = bib_files
        # Use a.bib as ancestor, b.bib as "theirs", and a trimmed copy
        # of a.bib (Ingres deleted) as "mine".
        mine = tmp_path / "mine.bib"
        mine.write_text(
            '@Article{B80, title = "Oracle", '
            'author = "Bob and others", year = 1980}')
        assert main(["sync", str(a), str(mine), str(b),
                     "--key", "title"]) == 0
        captured = capsys.readouterr()
        assert "1 deleted" in captured.err       # Ingres stays deleted
        assert "Ingres" not in captured.out
        assert "Oracle" in captured.out


class TestRulesCommand:
    def test_rules_over_bib_file(self, bib_files, tmp_path, capsys):
        a, _ = bib_files
        program = tmp_path / "queries.rules"
        program.write_text("""
        dated(T, Y) :- entry(M, [title => T, year => Y]).
        in_journal(T) :- entry(M, [title => T, journal => J]).
        """)
        assert main(["rules", str(program), str(a)]) == 0
        out = capsys.readouterr().out
        assert 'dated("Oracle", 1980)' in out
        assert 'in_journal("Ingres")' in out

    def test_rules_predicate_filter(self, bib_files, tmp_path, capsys):
        a, _ = bib_files
        program = tmp_path / "queries.rules"
        program.write_text(
            "dated(T, Y) :- entry(M, [title => T, year => Y]).\n"
            "titled(T) :- entry(M, [title => T]).\n")
        assert main(["rules", str(program), str(a),
                     "--predicate", "titled"]) == 0
        out = capsys.readouterr().out
        assert "titled" in out
        assert "dated" not in out

    def test_bad_program_fails_cleanly(self, bib_files, tmp_path, capsys):
        a, _ = bib_files
        program = tmp_path / "bad.rules"
        program.write_text("p(X :- broken.")
        assert main(["rules", str(program), str(a)]) == 2


class TestWalCommands:
    @pytest.fixture
    def durable_store(self, tmp_path):
        from repro.store import Database

        from tests.harness.crashsim import apply_commit

        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        for k in range(1, 6):
            apply_commit(db, k)
        db.close()
        return path

    def test_info_lists_frames(self, durable_store, capsys):
        assert main(["wal", "info", str(durable_store)]) == 0
        out = capsys.readouterr().out
        assert "base generation 0" in out
        assert "5 frames" in out
        assert "last recoverable generation: 5" in out

    def test_info_prints_format_and_table_size(self, durable_store,
                                                capsys):
        from repro.store import scan_wal
        from repro.store.wal import WAL_VERSION, wal_path

        assert main(["wal", "info", str(durable_store)]) == 0
        out = capsys.readouterr().out
        table = scan_wal(wal_path(durable_store)).table
        assert table
        assert f"format version {WAL_VERSION}" in out
        assert f"log table {len(table)} nodes" in out

    def test_info_absent_log(self, tmp_path, capsys):
        assert main(["wal", "info", str(tmp_path / "nothing.bin")]) == 0
        out = capsys.readouterr().out
        assert "absent" in out

    def test_compact_truncates_log(self, durable_store, capsys):
        from repro.store import scan_wal
        from repro.store.wal import wal_path

        assert main(["wal", "compact", str(durable_store)]) == 0
        assert "generation 5" in capsys.readouterr().err
        scan = scan_wal(wal_path(durable_store))
        assert scan.base_generation == 5
        assert scan.frames == []

    def test_recover_emits_historical_state(self, durable_store, capsys):
        assert main(["wal", "recover", str(durable_store),
                     "--generation", "4"]) == 0
        captured = capsys.readouterr()
        assert "as of generation 4" in captured.err
        assert "m4" in captured.out

    def test_recover_default_is_latest(self, durable_store, capsys):
        assert main(["wal", "recover", str(durable_store)]) == 0
        assert "as of generation 5" in capsys.readouterr().err

    def test_recover_save_writes_snapshot(self, durable_store, tmp_path,
                                          capsys):
        from repro.store import Database

        side = tmp_path / "as-of-3.bin"
        assert main(["wal", "recover", str(durable_store),
                     "--generation", "3", "--save", str(side)]) == 0
        assert Database.load(side).generation == 3

    def test_recover_out_of_range_fails_cleanly(self, durable_store,
                                                capsys):
        assert main(["wal", "recover", str(durable_store),
                     "--generation", "9"]) == 2
        assert "never logged" in capsys.readouterr().err
