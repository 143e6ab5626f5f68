"""``quote_identifier`` and the reserved-name rules it enforces.

Two regression families:

* the quoting helper itself — the single choke point the ``sql-quoting``
  lint rule routes every SQL identifier through — must accept exactly the
  names the backend generates and reject everything else;
* names the backend does not derive are ordinary relations: ``__dom_N`` and
  ``__whyno_heads`` load and explain on SQLite exactly as on memory (Why-No
  candidate generation runs in Python and creates no tables).
"""

import pytest

from repro.engine import WhyNoBatchExplainer
from repro.exceptions import BackendError
from repro.relational.database import Database
from repro.relational.query import parse_query
from repro.relational.sqlite_backend import SQLiteEvaluator, quote_identifier


class TestQuoteIdentifier:
    def test_plain_identifier_is_double_quoted(self):
        assert quote_identifier("R") == '"R"'
        assert quote_identifier("Movie_2010") == '"Movie_2010"'

    def test_backend_derived_names_are_accepted(self):
        # Partition views and per-column indexes.
        for name in ["R__endo", "R__exo", "R__ix0", "R__ix12"]:
            assert quote_identifier(name) == f'"{name}"'

    @pytest.mark.parametrize("name", [
        "R; DROP TABLE R",
        'R" (c0); --',
        "R name",
        "",
        "1R",
    ])
    def test_non_identifiers_are_rejected(self, name):
        with pytest.raises(BackendError):
            quote_identifier(name)

    def test_reserved_relation_names_are_rejected_through_the_base(self):
        # Derived-name reduction holds the *base* to the relation rules:
        # a name deriving from a reserved relation is itself reserved.
        with pytest.raises(BackendError):
            quote_identifier("R__endo__ix0")

    def test_sql_keyword_relation_names_are_usable(self):
        # The quoting bonus: relation names that are SQL keywords load and
        # evaluate instead of tripping a syntax error.
        database = Database()
        database.add_fact("Order", "a", "b")
        database.add_fact("Group", "b")
        evaluator = SQLiteEvaluator(database)
        query = parse_query("q(x) :- Order(x, y), Group(y)")
        assert evaluator.answers(query) == frozenset({("a",)})


class TestUnderscoreNamesAreOrdinaryRelations:
    @pytest.mark.parametrize("relation", ["__dom_0", "__dom_42",
                                          "__whyno_heads"])
    def test_relation_loads_on_sqlite(self, relation):
        database = Database()
        database.add_fact(relation, "a")
        evaluator = SQLiteEvaluator(database)
        query = parse_query(f"q(x) :- {relation}(x)")
        assert evaluator.answers(query) == frozenset({("a",)})

    def test_derived_names_follow_the_relation_rules(self):
        for name in ["__dom_0", "__dom_0__ix0", "__whyno_heads__endo",
                     "__whyno_heads__ix1"]:
            assert quote_identifier(name) == f'"{name}"'

    def test_whyno_ranking_matches_memory(self):
        database = Database()
        database.add_fact("__dom_0", "a", "b")
        database.add_fact("__dom_0", "c", "d")
        database.add_fact("__whyno_heads", "b")
        query = parse_query("q(x) :- __dom_0(x, y), __whyno_heads(y)")
        rankings = {}
        for backend in ("memory", "sqlite"):
            explainer = WhyNoBatchExplainer(
                query, database, non_answers=[("c",), ("e",)],
                domains={"y": ["b", "d", "f"]}, backend=backend)
            try:
                rankings[backend] = {
                    na: [(c.tuple, c.responsibility, c.contingency)
                         for c in explanation.ranked()]
                    for na, explanation in explainer.explain_all().items()}
            finally:
                explainer.close()
        assert rankings["sqlite"] == rankings["memory"]
        assert rankings["memory"][("c",)]
