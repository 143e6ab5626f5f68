"""Bottom-up evaluation of non-recursive stratified Datalog¬ programs.

The evaluator computes IDB relations stratum by stratum (in dependency
order).  A rule is evaluated by enumerating the valuations of its positive
body literals with the standard conjunctive-query evaluator and filtering out
valuations for which some negated literal instantiates to a present tuple —
the usual safe, stratified semantics.

Because rule bodies reuse :class:`~repro.relational.query.Atom`, the paper's
``Rⁿ`` / ``Rˣ`` annotations are honoured: an annotated EDB atom ranges only
over the endogenous (resp. exogenous) tuples of its relation.  IDB relations
are stored as ordinary tuples in a working copy of the database, so they can
be queried downstream like any other relation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple as TypingTuple

from ..exceptions import DatalogError
from ..relational.database import Database
from ..relational.evaluation import QueryEvaluator
from ..relational.query import Atom, ConjunctiveQuery, Constant, Variable
from ..relational.tuples import Tuple
from .program import Literal, Program, Rule


class DatalogResult:
    """Result of evaluating a program: the computed IDB relations.

    Attributes
    ----------
    relations:
        Mapping from IDB relation name to the frozenset of derived tuples.
    database:
        A database containing the original EDB tuples plus the derived IDB
        tuples (IDB tuples are marked exogenous so they never become
        accidental causes downstream).
    """

    def __init__(self, relations: Dict[str, FrozenSet[Tuple]], database: Database):
        self.relations = relations
        self.database = database

    def __getitem__(self, relation: str) -> FrozenSet[Tuple]:
        return self.relations.get(relation, frozenset())

    def rows(self, relation: str) -> FrozenSet[TypingTuple]:
        """Derived rows of ``relation`` as plain value tuples."""
        return frozenset(t.values for t in self[relation])

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}: {len(tuples)}"
                           for name, tuples in sorted(self.relations.items()))
        return f"DatalogResult({counts})"


def _instantiate(atom: Atom, assignment: Dict[Variable, object]) -> Tuple:
    """Ground an atom under a (total, for its variables) assignment."""
    values = []
    for term in atom.terms:
        if isinstance(term, Variable):
            values.append(assignment[term])
        else:
            assert isinstance(term, Constant)
            values.append(term.value)
    return Tuple(atom.relation, values)


def evaluate_program(program: Program, database: Database) -> DatalogResult:
    """Evaluate ``program`` over the EDB ``database``.

    Returns a :class:`DatalogResult` with every IDB relation fully computed.

    Raises
    ------
    DatalogError
        If the program is recursive or an IDB relation name collides with a
        non-empty EDB relation.
    """
    idb = program.idb_relations()
    for relation in idb:
        if database.size(relation) > 0:
            raise DatalogError(
                f"IDB relation {relation!r} collides with a non-empty EDB relation"
            )

    working = database.copy()
    derived: Dict[str, Set[Tuple]] = {name: set() for name in idb}

    for relation in program.evaluation_order():
        new_tuples: Set[Tuple] = set()
        for rule in program.rules_for(relation):
            new_tuples |= _evaluate_rule(rule, working)
        derived[relation] |= new_tuples
        for tup in new_tuples:
            working.add(tup, endogenous=False)

    return DatalogResult(
        {name: frozenset(tuples) for name, tuples in derived.items()}, working
    )


def _evaluate_rule(rule: Rule, database: Database) -> Set[Tuple]:
    """All head tuples derivable by a single rule over ``database``."""
    positive_atoms = [literal.atom for literal in rule.positive_literals()]
    negative_literals = rule.negative_literals()
    query = ConjunctiveQuery(positive_atoms, head=(), name="_rule_body")
    evaluator = QueryEvaluator(database)

    results: Set[Tuple] = set()
    for valuation in evaluator.valuations(query):
        assignment = valuation.assignment
        blocked = False
        for literal in negative_literals:
            candidate = _instantiate(literal.atom, assignment)
            present: bool
            if literal.atom.endogenous is True:
                present = candidate in database.endogenous_tuples(candidate.relation)
            elif literal.atom.endogenous is False:
                present = candidate in database.exogenous_tuples(candidate.relation)
            else:
                present = database.contains(candidate)
            if present:
                blocked = True
                break
        if blocked:
            continue
        results.add(_instantiate(rule.head, assignment))
    return results


def evaluate_rules(rules: Iterable[Rule], database: Database) -> DatalogResult:
    """Convenience wrapper: wrap ``rules`` in a :class:`Program` and evaluate."""
    return evaluate_program(Program(rules), database)
