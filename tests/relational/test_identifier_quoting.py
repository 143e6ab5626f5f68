"""``quote_identifier`` and the reserved-name rules it enforces.

Two regression families:

* the quoting helper itself — the single choke point the ``sql-quoting``
  lint rule routes every SQL identifier through — must accept exactly the
  names the backend generates and reject everything else;
* the ``__dom_N`` / ``__whyno_heads`` reservation: SQLite's temp schema
  shadows ``main`` for unqualified names, so a user relation named like a
  Why-No scratch table would silently be read as candidate data during the
  batched candidate pass.  Loading one must fail loudly instead.
"""

import pytest

from repro.exceptions import BackendError
from repro.relational.database import Database
from repro.relational.query import parse_query
from repro.relational.sqlite_backend import (SQLiteDatabase, SQLiteEvaluator,
                                             quote_identifier)


class TestQuoteIdentifier:
    def test_plain_identifier_is_double_quoted(self):
        assert quote_identifier("R") == '"R"'
        assert quote_identifier("Movie_2010") == '"Movie_2010"'

    def test_backend_derived_names_are_accepted(self):
        # Partition views, per-column indexes, Why-No scratch tables.
        for name in ["R__endo", "R__exo", "R__ix0", "R__ix12",
                     "__dom_0", "__dom_17", "__whyno_heads"]:
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
            quote_identifier("__whyno_heads__ix0")

    def test_sql_keyword_relation_names_are_usable(self):
        # The quoting bonus: relation names that are SQL keywords load and
        # evaluate instead of tripping a syntax error.
        database = Database()
        database.add_fact("Order", "a", "b")
        database.add_fact("Group", "b")
        evaluator = SQLiteEvaluator(database)
        query = parse_query("q(x) :- Order(x, y), Group(y)")
        assert evaluator.answers(query) == frozenset({("a",)})


class TestWhyNoScratchNameReservation:
    @pytest.mark.parametrize("relation", ["__dom_0", "__dom_42",
                                          "__whyno_heads"])
    def test_loading_a_scratch_named_relation_fails_loudly(self, relation):
        database = Database()
        database.add_fact(relation, "a")
        with pytest.raises(BackendError, match="Why-No temporary tables"):
            SQLiteDatabase(database)
