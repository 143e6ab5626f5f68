"""Hardness of ``h∗3``: instance transformation from ``h∗2``.

The proof of Theorem 4.1 for

    ``h∗3 :- Aⁿ(x'), Bⁿ(y'), Cⁿ(z'), R(x', y'), S(y', z'), T(z', x')``

transforms any ``h∗2`` instance into an ``h∗3`` instance (Fig. 9): every
``R`` tuple of the source instance becomes an ``A`` tuple (its identity is the
new domain value), ``S`` tuples become ``B`` tuples, ``T`` tuples become ``C``
tuples, and for every valuation that makes ``h∗2`` true the corresponding
identities are linked through the binary relations ``R'``, ``S'``, ``T'``.
The binary relations are dominated by the unary ones, the minimal lineages of
the two instances coincide, and hence causes and responsibilities carry over
one-to-one.
"""

from __future__ import annotations

from typing import Dict, Tuple as TypingTuple

from ..relational.database import Database
from ..relational.evaluation import find_valuations
from ..relational.query import ConjunctiveQuery, parse_query
from ..relational.tuples import Tuple


def h3_query(binary_endogenous: bool = False) -> ConjunctiveQuery:
    """The canonical hard query ``h∗3`` (binary relations exogenous by default)."""
    marker = "^n" if binary_endogenous else "^x"
    return parse_query(
        f"h3 :- A^n(x), B^n(y), C^n(z), "
        f"R{marker}(x, y), S{marker}(y, z), T{marker}(z, x)"
    )


class H3Instance:
    """``h∗3`` instance produced from an ``h∗2`` instance.

    Attributes
    ----------
    database:
        The transformed instance over A, B, C, R, S, T.
    tuple_map:
        Mapping from each source (h∗2) tuple to the unary tuple representing
        it in the transformed instance.
    query:
        The ``h∗3`` query.
    """

    def __init__(self, database: Database, tuple_map: Dict[Tuple, Tuple],
                 query: ConjunctiveQuery):
        self.database = database
        self.tuple_map = tuple_map
        self.query = query

    def image_of(self, source_tuple: Tuple) -> Tuple:
        """The A/B/C tuple corresponding to a source R/S/T tuple."""
        return self.tuple_map[source_tuple]


def h3_instance_from_h2(h2_database: Database,
                        binary_endogenous: bool = False) -> H3Instance:
    """Transform an ``h∗2`` database into an ``h∗3`` database (Fig. 9).

    The source database must use relations named ``R``, ``S``, ``T`` with the
    triangle join pattern of ``h∗2``.
    """
    h2 = parse_query("h2 :- R(x, y), S(y, z), T(z, x)")
    db = Database()
    tuple_map: Dict[Tuple, Tuple] = {}

    unary_for = {"R": "A", "S": "B", "T": "C"}
    for relation, unary in unary_for.items():
        for source in sorted(h2_database.tuples_of(relation)):
            identity = f"{relation}({source.values[0]},{source.values[1]})"
            image = db.add_fact(unary, identity,
                                endogenous=h2_database.is_endogenous(source))
            tuple_map[source] = image

    for valuation in find_valuations(h2, h2_database):
        r_tuple, s_tuple, t_tuple = (
            next(t for t in valuation.atom_tuples if t.relation == "R"),
            next(t for t in valuation.atom_tuples if t.relation == "S"),
            next(t for t in valuation.atom_tuples if t.relation == "T"),
        )
        r_id = tuple_map[r_tuple].values[0]
        s_id = tuple_map[s_tuple].values[0]
        t_id = tuple_map[t_tuple].values[0]
        db.add_fact("R", r_id, s_id, endogenous=binary_endogenous)
        db.add_fact("S", s_id, t_id, endogenous=binary_endogenous)
        db.add_fact("T", t_id, r_id, endogenous=binary_endogenous)

    return H3Instance(db, tuple_map, h3_query(binary_endogenous))
