#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, reads its ``__all__`` and docstrings,
and writes a compact reference: one section per module, one line per
public name (signature + first docstring sentence). Run from the repo
root::

    python tools/gen_api_docs.py            # writes docs/API.md
    python tools/gen_api_docs.py OUT.md     # writes OUT.md instead

The file is generated; edit the docstrings, not docs/API.md.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Document this checkout's package, not an installed one.
sys.path.insert(0, str(ROOT / "src"))

MODULES = [
    "repro.core",
    "repro.text",
    "repro.json_codec",
    "repro.binary_codec",
    "repro.bibtex",
    "repro.web",
    "repro.baselines",
    "repro.merge",
    "repro.query",
    "repro.rules",
    "repro.store",
    "repro.schema",
    "repro.workloads",
    "repro.properties",
    "repro.harness",
    "repro.cli",
]

HEADER = """# API reference

One line per public name, generated from the docstrings by
`python tools/gen_api_docs.py`. See `docs/TUTORIAL.md` for a guided
walkthrough and the module docstrings for full documentation.

## Interning and caching semantics

All model objects are immutable, which makes **hash-consing** sound:
`repro.core.intern.intern(obj)` (or the builder shortcut `iobj(...)`)
returns the canonical representative of an object's structural
equivalence class, so two structurally equal interned objects are
pointer-identical. The pool holds strong references, guaranteeing a
canonical object's `id()` is never recycled while the pool lives.

Interning is what unlocks the memoized **fast paths**: `⊴`
(`less_informative`), key-compatibility (`compatible`) and the key-based
operations (`union` / `intersection` / `difference`) each keep an
identity-keyed memo table that is consulted only when *both* operands
are interned. Equality between interned objects degenerates to an
identity check (`repro.core.intern.equal`), the store's key-index
signatures are cached per interned object, and the fast operations
intern their results so chained operations stay in the fast regime.
Decoder entry points (`repro.text.parse_*`, `repro.json_codec.loads*`,
`repro.bibtex` mapping functions) accept `intern=True`;
`repro.store.Database` interns by default (`intern_objects=False` opts
out).

Every cached predicate and operation also accepts `naive=True`, which
bypasses the pool and all memo tables and runs the untouched
definitional code — the reference oracle the differential test suite
(`tests/properties/test_differential.py`) checks the fast paths
against. `clear_pool()` empties the pool **and** every registered memo
table (they are registered via `repro.core.intern.on_clear`), so stale
`id()`-keyed entries can never outlive the objects they describe.

## Query planning semantics

`repro.query.Query` executes through a small planner
(`repro.query.planner`): conditions are compiled once into closure
predicates (`repro.query.compile.compile_condition`, memoized on the
immutable condition instance) and, where every leaf has one, into a
bitset program (`repro.query.compile.compile_columnar`). When the query
carries a column store (`Query.with_columns`, which `repro.store.Database`
attaches) and the program exists, the planner runs the **columnar**
strategy: bitset algebra over the shredded rows, with the compiled
predicate deciding only the maybe and residue rows. Otherwise it runs
the **row-scan** strategy, the compiled full scan. `order_by` + `limit`
push down to a bounded heap selection either way, and `Query.explain()`
returns the `Plan`, whose `strategy` is `columnar` or `row-scan`.

Each column's eq-index and possible-value index map a `(type, value)`
to the rows whose path reaches it with **existential spread** — sets
and or-values fan out to their members — which is exactly the
quantifier `Condition` evaluation uses, so the bitsets are exact, never
approximate. They build on first use; `Database(index_paths=...)` /
`Database.create_index()` build a path's indexes up front, and writes
carry them to the next generation.
Planned execution is observationally identical to the definitional
scan: every run method accepts `naive=True` (the full-scan oracle), and
`tests/properties/test_planner_differential.py` plus the committed
`BENCH_query.json` benchmark assert planned == naive on every run.
"""


def first_sentence(doc: str | None) -> str:
    if not doc:
        return ""
    text = " ".join(doc.strip().split())
    for terminator in (". ", ".\n"):
        position = text.find(terminator)
        if position != -1:
            return text[:position + 1]
    return text if text.endswith(".") else text + "."


def describe(name: str, value: object) -> str:
    if inspect.isclass(value):
        return f"- **`{name}`** (class) — {first_sentence(value.__doc__)}"
    if inspect.isfunction(value):
        try:
            signature = str(inspect.signature(value))
        except (TypeError, ValueError):
            signature = "(...)"
        if len(signature) > 60:
            signature = "(...)"
        return (f"- **`{name}{signature}`** — "
                f"{first_sentence(value.__doc__)}")
    return f"- **`{name}`** — constant."


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", type=Path,
                        default=ROOT / "docs" / "API.md",
                        help="where to write the reference "
                             "(default: docs/API.md)")
    output = parser.parse_args(argv).output
    sections = [HEADER]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            exported = [name for name in vars(module)
                        if not name.startswith("_")]
        sections.append(f"\n## `{module_name}`\n")
        sections.append(first_sentence(module.__doc__) + "\n")
        for name in exported:
            value = getattr(module, name, None)
            if value is None and name != "BOTTOM":
                continue
            sections.append(describe(name, value))
        sections.append("")
    text = "\n".join(sections) + "\n"
    output.write_text(text)
    print(f"wrote {output} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
