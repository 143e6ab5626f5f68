"""Random database and query generators for benchmarks and property tests.

Three families of generators are provided:

* **database generators** — random instances for a given query shape, with a
  configurable value-domain size (which controls join selectivity) and an
  endogenous/exogenous policy;
* **query generators** — chain, star and cycle conjunctive queries of a given
  length (chains are linear, stars with ≥ 3 endogenous rays and cycles of
  length 3 relate to the hard queries);
* **scaling series** — helpers that produce a sequence of instances of growing
  size for the Fig. 3 complexity-shape benchmarks.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple as TypingTuple

from ..relational.database import Database
from ..relational.query import Atom, ConjunctiveQuery
from ..relational.tuples import Tuple


# --------------------------------------------------------------------------- #
# query shapes
# --------------------------------------------------------------------------- #
def chain_query(length: int, endogenous: Optional[Sequence[bool]] = None,
                name: str = "chain") -> ConjunctiveQuery:
    """The chain query ``R1(x0, x1), R2(x1, x2), ..., Rk(x_{k-1}, x_k)``.

    Chain queries are linear for every ``length`` and are the canonical PTIME
    family used by the Fig. 3 / Fig. 4 benchmarks.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    atoms = []
    for i in range(length):
        endo = None if endogenous is None else endogenous[i]
        atoms.append(Atom(f"R{i + 1}", [f"x{i}", f"x{i + 1}"], endogenous=endo))
    return ConjunctiveQuery(atoms, name=name)


def star_query(rays: int, endogenous: Optional[Sequence[bool]] = None,
               name: str = "star") -> ConjunctiveQuery:
    """The star query ``A1(x1), ..., Ak(xk), W(x1, ..., xk)``.

    With three endogenous rays this is exactly ``h∗1`` (NP-hard); with two it
    is linear.
    """
    if rays < 1:
        raise ValueError("a star query needs at least one ray")
    atoms = []
    for i in range(rays):
        endo = None if endogenous is None else endogenous[i]
        atoms.append(Atom(f"A{i + 1}", [f"x{i + 1}"], endogenous=endo))
    centre_endo = None if endogenous is None else endogenous[-1]
    atoms.append(Atom("W", [f"x{i + 1}" for i in range(rays)], endogenous=centre_endo))
    return ConjunctiveQuery(atoms, name=name)


def cycle_query(length: int, endogenous: Optional[Sequence[bool]] = None,
                name: str = "cycle") -> ConjunctiveQuery:
    """The cycle query ``R1(x1, x2), R2(x2, x3), ..., Rk(xk, x1)``.

    A cycle of length 3 with all relations endogenous is ``h∗2`` (NP-hard).
    """
    if length < 2:
        raise ValueError("cycle length must be >= 2")
    atoms = []
    for i in range(length):
        endo = None if endogenous is None else endogenous[i]
        atoms.append(Atom(f"R{i + 1}",
                          [f"x{i + 1}", f"x{(i + 1) % length + 1}"],
                          endogenous=endo))
    return ConjunctiveQuery(atoms, name=name)


# --------------------------------------------------------------------------- #
# database generators
# --------------------------------------------------------------------------- #
def random_database_for_query(query: ConjunctiveQuery, tuples_per_relation: int,
                              domain_size: int, seed: int = 0,
                              endogenous_relations: Optional[Iterable[str]] = None
                              ) -> Database:
    """A random instance for ``query``: each relation gets i.i.d. uniform tuples.

    Values are drawn from ``0 .. domain_size - 1`` independently per position,
    so smaller domains give denser joins (larger lineages).  Relations listed
    in ``endogenous_relations`` (default: all) are endogenous.
    """
    rng = random.Random(seed)
    endo = None if endogenous_relations is None else set(endogenous_relations)
    db = Database()
    arities: Dict[str, int] = {}
    for atom in query.atoms:
        arities.setdefault(atom.relation, atom.arity)
    for relation, arity in sorted(arities.items()):
        is_endo = True if endo is None else relation in endo
        added = 0
        attempts = 0
        while added < tuples_per_relation and attempts < 50 * tuples_per_relation:
            attempts += 1
            values = tuple(rng.randrange(domain_size) for _ in range(arity))
            before = db.size(relation)
            db.add_fact(relation, *values, endogenous=is_endo)
            if db.size(relation) > before:
                added += 1
    return db


def random_two_table_instance(n_r: int, n_s: int, domain_size: int,
                              seed: int = 0) -> Database:
    """A random instance for the Fig. 4 query ``q :- R(x, y), S(y, z)``."""
    rng = random.Random(seed)
    db = Database()
    for _ in range(n_r):
        db.add_fact("R", rng.randrange(domain_size), rng.randrange(domain_size))
    for _ in range(n_s):
        db.add_fact("S", rng.randrange(domain_size), rng.randrange(domain_size))
    return db


def star_instance(rays: int, per_relation: int, domain_size: int,
                  seed: int = 0,
                  endogenous_relations: Optional[Iterable[str]] = None) -> Database:
    """A random instance for :func:`star_query` with correlated centre tuples.

    The centre relation ``W`` is populated from random combinations of the ray
    values actually present, so the query is satisfied with high probability.
    """
    rng = random.Random(seed)
    endo = None if endogenous_relations is None else set(endogenous_relations)

    def is_endo(relation: str) -> bool:
        return True if endo is None else relation in endo

    db = Database()
    ray_values: List[List[int]] = []
    for i in range(rays):
        relation = f"A{i + 1}"
        values = sorted(rng.sample(range(domain_size), k=min(per_relation, domain_size)))
        ray_values.append(values)
        for value in values:
            db.add_fact(relation, value, endogenous=is_endo(relation))
    for _ in range(per_relation):
        combination = tuple(rng.choice(values) for values in ray_values)
        db.add_fact("W", *combination, endogenous=is_endo("W"))
    return db


def sharded_fanout_instance(n_answers: int, witnesses_per_answer: int,
                            seed: int = 0, skew_factor: int = 1,
                            exogenous_s: bool = False) -> Database:
    """A wide instance for ``q(x) :- R(x, y), S(y, z)`` with per-answer lineage.

    Each answer ``x{i}`` gets its *own* join values ``y{i}_{j}``, so lineages
    are disjoint across answers and explaining ``x{i}`` never touches another
    answer's rows.  This is the scale shape for the fan-out benchmarks and
    the parallel equivalence tests — many answers, each with a non-trivial
    witness set.

    ``skew_factor`` > 1 inflates the *first* answer's witness count by that
    factor (the other answers keep ``witnesses_per_answer``), modelling the
    pathological skew a work-stealing pool must absorb without changing any
    explanation.  ``exogenous_s`` marks the ``S`` rows exogenous so the causes
    all live in ``R``.
    """
    if n_answers < 1:
        raise ValueError("need at least one answer")
    if witnesses_per_answer < 1:
        raise ValueError("need at least one witness per answer")
    if skew_factor < 1:
        raise ValueError("skew_factor must be >= 1")
    rng = random.Random(seed)
    db = Database()
    for i in range(n_answers):
        count = witnesses_per_answer * (skew_factor if i == 0 else 1)
        for j in range(count):
            join_value = f"y{i}_{j}"
            db.add_fact("R", f"x{i}", join_value)
            db.add_fact("S", join_value, rng.randrange(8),
                        endogenous=not exogenous_s)
    return db


def scaling_series(sizes: Sequence[int], make_instance) -> List[TypingTuple[int, Database]]:
    """``[(n, make_instance(n)) for n in sizes]`` — convenience for benchmarks."""
    return [(n, make_instance(n)) for n in sizes]


def pick_endogenous_tuple(database: Database, relation: str, seed: int = 0) -> Tuple:
    """A deterministic 'random' endogenous tuple of ``relation`` (for benchmarks)."""
    tuples = sorted(database.endogenous_tuples(relation))
    if not tuples:
        raise ValueError(f"relation {relation!r} has no endogenous tuples")
    rng = random.Random(seed)
    return tuples[rng.randrange(len(tuples))]
