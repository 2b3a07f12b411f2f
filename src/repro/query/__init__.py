"""Query layer: path expressions, conditions and a textual language.

Fluent API::

    from repro.query import Query, Eq, Ge
    Query(ds).where(Eq("type", "Article") & Ge("year", 1980)) \\
             .select("title").run()

Textual form::

    from repro.query import run_query
    run_query('select title where type = "Article" and year >= 1980', ds)
"""

from repro.query.aggregates import (
    AggregateSpec,
    Bounds,
    Collect,
    Count,
    Max,
    Min,
    Sum,
)
from repro.query.ast import (
    And,
    Condition,
    Contains,
    Eq,
    Exists,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Query,
)
from repro.query.join import JoinQuery, JoinRow
from repro.query.compile import (
    compile_columnar,
    compile_condition,
    invalidation_profile,
)
from repro.query.parser import (
    QuerySpec,
    parse_query,
    parse_query_spec,
    run_query,
)
from repro.query.paths import (
    evaluate_path,
    iter_path,
    parse_path,
    path_exists,
)
from repro.query.planner import (
    AggregatePlan,
    JoinPlan,
    Plan,
    explain_plan,
    select_data,
)

__all__ = [
    "Query", "Condition", "Eq", "Ne", "Lt", "Le", "Gt", "Ge",
    "Exists", "Contains", "And", "Or", "Not",
    "JoinQuery", "JoinRow",
    "AggregateSpec", "Bounds", "Count", "Sum", "Min", "Max", "Collect",
    "parse_query", "run_query", "parse_query_spec", "QuerySpec",
    "parse_path", "evaluate_path", "iter_path", "path_exists",
    "compile_condition", "compile_columnar", "invalidation_profile",
    "select_data", "explain_plan", "Plan",
    "JoinPlan", "AggregatePlan",
]
