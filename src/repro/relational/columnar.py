"""Columnar valuation pass: the one valuation kernel of the memory backend.

Every explanation mode funnels through one loop — enumerate the valuations
of a query, group them by head tuple (Sect. 3 of the paper makes valuations
the unit of all downstream lineage work).  Tuple-at-a-time, that loop pays
one Python object, dict and ``frozenset`` per valuation; this module runs
it around *columnar batches* instead:

* a :class:`ValueDictionary` maps every database value to a small integer
  code, once per evaluator — joins then compare ints, never rich values
  (``None`` has a code like any value, so it joins with itself);
* a :class:`ColumnStore` per ``(relation, status)`` is the evaluator's one
  stored form of that tuple set: an insertion-ordered row list, the
  dictionary-encoded value column of every queried position, and lazily
  built per-position *postings* (code → ascending row ids) through which
  constants resolve.  ``QueryEvaluator.apply_changes`` patches all three
  per tuple (swap-delete keeps the columns dense); an atom the planner
  did not prune reuses the store's columns with **zero** copying, a pruned
  one gathers its surviving rows' codes (:meth:`ColumnStore.gather`);
* :func:`run_pass` executes the greedy plan of
  :class:`~repro.relational.evaluation.QueryEvaluator` (``_build_plans`` /
  ``_atom_order`` are the planners) as block-at-a-time hash joins: the
  build side maps key codes to row ids, the probe emits two parallel
  selection vectors (``out_sel`` repeating probe rows, ``out_match`` naming
  matched build rows), and gathers extend the block;
* head grouping buckets the joined block by head *codes* and emits one
  :class:`ValuationBlock` per answer — per-atom row-id vectors into shared
  candidate row lists, **not** per-valuation dicts.  Conjunct ``frozenset``
  materialisation is deferred until an explanation or a refresh actually
  needs that answer (:meth:`ValuationBlock.conjuncts`).

The pass is pure Python with no third-party import: blocks are plain
lists and ``array("q")`` row-id vectors.  Its hot use is Algorithm 1's
small bound-query passes, where converting columns to and from a
vectorised array library costs more than the join it saves (and importing
one costs resident memory), so there is one probe and one grouping.

Everything downstream is canonical (``PositiveDNF`` is a frozenset of
frozensets, answers are sorted by value), so block row order — which follows
store row order, seeded from hash-ordered tuple sets — never reaches an
explanation; the property suite ``tests/property/test_columnar_pass.py``
pins the kernel ≡ SQLite bit-exactly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as TypingTuple,
)

from .query import ConjunctiveQuery, Variable
from .tuples import Tuple

#: A (non-)answer head tuple, as the batch engines key their maps.
Answer = TypingTuple[Any, ...]

#: One dictionary-encoded column: value codes, aligned with a row list.
CodeColumn = List[int]


class PassStats:
    """Per-phase counters of the valuation pass, for ``engine_stats()``.

    The counters describe the **most recent** columnar pass plus whatever
    incremental work (delta re-derivation, lazy bound-query evaluation)
    happened since: :meth:`reset` zeroes them at the start of every
    ``valuations_blocks`` call, so a resident session's ``engine_stats()``
    reports the pass it just ran instead of an ever-growing lifetime sum —
    and a delta that silently forces repeated full passes still shows up in
    ``--cache-stats``, as a non-shrinking ``plans_built`` per refresh.
    """

    __slots__ = ("plans_built", "semijoin_rounds", "rows_pruned",
                 "columnar_passes", "blocks_produced", "block_rows",
                 "joins", "adapter_valuations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter — the start of a new measurement window."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (stable keys, for stats payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PassStats({inner})"


class ValueDictionary:
    """Value → small-int code map, shared per evaluator.

    Codes are append-only: a deleted tuple's values keep their codes (they
    cost one dict slot and stay correct if the value returns), which is what
    lets ``apply_changes`` patch column stores without re-encoding anything.
    """

    __slots__ = ("_codes",)

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}

    def encode(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            code = self._codes[value] = len(self._codes)
        return code

    def lookup(self, value: Any) -> Optional[int]:
        """The code of ``value``, or ``None`` if no row ever held it."""
        return self._codes.get(value)

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return f"ValueDictionary({len(self._codes)} value(s))"


class ColumnStore:
    """Dictionary-encoded columns for one ``(relation, status)`` tuple set.

    ``rows`` is insertion-ordered and stays aligned with every built column;
    deletion swap-moves the last row into the hole so the columns remain
    dense.  Columns are built lazily per position, so only positions some
    query touches are ever encoded; postings (code → row ids, ascending)
    likewise, for the positions constants bind.  Every row has its
    relation's one arity (``Database.add`` enforces it), and an emptied
    store drops its columns, so a relation refilled at another arity starts
    afresh.
    """

    __slots__ = ("dictionary", "rows", "_rowids", "_columns", "_postings")

    def __init__(self, dictionary: ValueDictionary,
                 tuples: Iterable[Tuple]) -> None:
        self.dictionary = dictionary
        self.rows: List[Tuple] = list(tuples)
        self._rowids: Optional[Dict[Tuple, int]] = None
        self._columns: Dict[int, CodeColumn] = {}
        self._postings: Dict[int, Dict[int, List[int]]] = {}

    @property
    def arity(self) -> Optional[int]:
        """The arity of the rows, ``None`` while the store is empty."""
        return len(self.rows[0].values) if self.rows else None

    def column(self, position: int) -> CodeColumn:
        """The code column of one position, built on first use."""
        column = self._columns.get(position)
        if column is None:
            encode = self.dictionary.encode
            column = self._columns[position] = [
                encode(tup.values[position]) for tup in self.rows]
        return column

    def postings(self, position: int) -> Dict[int, List[int]]:
        """Code → ascending row ids of one position, built on first use."""
        postings = self._postings.get(position)
        if postings is None:
            postings = self._postings[position] = {}
            for rowid, code in enumerate(self.column(position)):
                postings.setdefault(code, []).append(rowid)
        return postings

    def gather(
            self, rowids: Optional[Sequence[int]],
            positions: Mapping[Variable, int],
    ) -> TypingTuple[List[Tuple], Dict[Variable, CodeColumn]]:
        """Rows and per-variable code columns of a row selection.

        ``rowids`` of ``None`` selects every row: the store's own columns
        are returned without copying (they are only read during one pass).
        The row list is always fresh, because blocks outlive the pass and
        later swap-deletes mutate the live ``rows``.
        """
        if rowids is None:
            return list(self.rows), {
                variable: self.column(position)
                for variable, position in positions.items()
            }
        columns: Dict[Variable, CodeColumn] = {}
        for variable, position in positions.items():
            column = self.column(position)
            columns[variable] = [column[index] for index in rowids]
        rows = self.rows
        return [rows[index] for index in rowids], columns

    def _ids(self) -> Dict[Tuple, int]:
        """Row id of every row, built on the first patch."""
        if self._rowids is None:
            self._rowids = {tup: index for index, tup in enumerate(self.rows)}
        return self._rowids

    def update_membership(self, tup: Tuple, present: bool) -> None:
        """Patch one tuple in or out, keeping columns and postings aligned."""
        rowids = self._ids()
        if present:
            if tup in rowids:
                return
            rowid = rowids[tup] = len(self.rows)
            self.rows.append(tup)
            encode = self.dictionary.encode
            for position, column in self._columns.items():
                code = encode(tup.values[position])
                column.append(code)
                postings = self._postings.get(position)
                if postings is not None:
                    postings.setdefault(code, []).append(rowid)
            return
        index = rowids.pop(tup, None)
        if index is None:
            return
        last_index = len(self.rows) - 1
        for position, postings in self._postings.items():
            column = self._columns[position]
            bucket = postings[column[index]]
            del bucket[bisect_left(bucket, index)]
            if not bucket:
                del postings[column[index]]
            if index != last_index:
                # The last row has the largest id, so it ends its bucket.
                moved = postings[column[last_index]]
                moved.pop()
                insort(moved, index)
        if index != last_index:
            last = self.rows[last_index]
            self.rows[index] = last
            rowids[last] = index
            for column in self._columns.values():
                column[index] = column[last_index]
        self.rows.pop()
        for column in self._columns.values():
            column.pop()
        if not self.rows:
            self._columns.clear()
            self._postings.clear()

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (f"ColumnStore({len(self.rows)} row(s), "
                f"{len(self._columns)} column(s))")


class ValuationBlock:
    """One answer's valuations in columnar form.

    ``atom_rows[a]`` is the shared candidate row list of query atom ``a``
    (shared across every block of one pass — it is pickled once per fan-out
    payload), ``rowids[a]`` the per-valuation indices into it: valuation
    ``i`` of the block matched ``atom_rows[a][rowids[a][i]]`` at atom ``a``.
    Tuple-level structures (``frozenset`` conjuncts, ``Valuation`` objects)
    are only materialised by the accessors below, so the pass itself never
    pays per-valuation Python-object costs.
    """

    __slots__ = ("atom_rows", "rowids")

    def __init__(self, atom_rows: Sequence[Sequence[Tuple]],
                 rowids: Sequence[Sequence[int]]) -> None:
        self.atom_rows = atom_rows
        self.rowids = rowids

    def __len__(self) -> int:
        return len(self.rowids[0]) if self.rowids else 0

    def atom_tuples(self) -> Iterator[TypingTuple[Tuple, ...]]:
        """Per-valuation matched tuples, in query-atom order."""
        gathered = [
            [rows[index] for index in ids]
            for rows, ids in zip(self.atom_rows, self.rowids)
        ]
        return zip(*gathered)

    def conjuncts(self) -> List[FrozenSet[Tuple]]:
        """Materialise the lineage conjuncts (one frozenset per valuation)."""
        return list(map(frozenset, self.atom_tuples()))

    def lineage_tuples(self) -> FrozenSet[Tuple]:
        """The distinct tuples of the block, without building conjuncts.

        This is what the lineage inverted index needs per answer — computed
        from the (much smaller) distinct row-id sets, so rebuilding the
        index off a columnar pass never materialises frozensets.
        """
        distinct: Set[Tuple] = set()
        for rows, ids in zip(self.atom_rows, self.rowids):
            # ``dict.fromkeys`` dedups order-stably; the determinism lint
            # rule bans iterating a ``set()`` call.
            distinct.update(rows[index] for index in dict.fromkeys(ids))
        return frozenset(distinct)

    def __getstate__(self) -> TypingTuple[Any, Any]:
        return (self.atom_rows, self.rowids)

    def __setstate__(self, state: TypingTuple[Any, Any]) -> None:
        self.atom_rows, self.rowids = state

    def __repr__(self) -> str:
        return (f"ValuationBlock({len(self)} valuation(s) × "
                f"{len(self.atom_rows)} atom(s))")


#: What the engines store per answer: either materialised conjuncts or a
#: still-columnar block (materialised lazily by ``materialize_conjuncts``).
ConjunctGroup = Any


def materialize_conjuncts(group: ConjunctGroup) -> List[FrozenSet[Tuple]]:
    """Lineage conjuncts of a group, whichever representation it is in."""
    if isinstance(group, ValuationBlock):
        return group.conjuncts()
    return list(group)


def _build_hash_table(
        cols: Mapping[Variable, CodeColumn], shared: Sequence[Variable],
) -> Dict[Any, List[int]]:
    """Build side of one block join: key codes → matching row ids."""
    table: Dict[Any, List[int]] = {}
    if len(shared) == 1:
        for rowid, key in enumerate(cols[shared[0]]):
            bucket = table.get(key)
            if bucket is None:
                table[key] = [rowid]
            else:
                bucket.append(rowid)
    else:
        for rowid, key in enumerate(zip(*(cols[v] for v in shared))):
            bucket = table.get(key)
            if bucket is None:
                table[key] = [rowid]
            else:
                bucket.append(rowid)
    return table


def _probe(
        block_vars: Mapping[Variable, CodeColumn],
        table: Mapping[Any, List[int]], shared: Sequence[Variable],
) -> TypingTuple[List[int], List[int]]:
    """Probe the current block against a build table.

    Returns ``(out_sel, out_match)``: parallel vectors where probe row
    ``out_sel[k]`` joined with build row ``out_match[k]``.
    """
    out_sel: List[int] = []
    out_match: List[int] = []
    sel_append, match_extend = out_sel.append, out_match.extend
    get = table.get
    if len(shared) == 1:
        for index, key in enumerate(block_vars[shared[0]]):
            ids = get(key)
            if ids is not None:
                match_extend(ids)
                for _ in ids:
                    sel_append(index)
    else:
        for index, key in enumerate(
                zip(*(block_vars[v] for v in shared))):
            ids = get(key)
            if ids is not None:
                match_extend(ids)
                for _ in ids:
                    sel_append(index)
    return out_sel, out_match


def _cross_product(
        length: int, n_build: int,
) -> TypingTuple[List[int], List[int]]:
    """Selection vectors for a disconnected atom (no shared variables)."""
    out_sel = [index for index in range(length) for _ in range(n_build)]
    out_match = list(range(n_build)) * length
    return out_sel, out_match


def run_pass(
        query: ConjunctiveQuery,
        atoms: Sequence[TypingTuple[List[Tuple], Dict[Variable, CodeColumn]]],
        order: Sequence[int],
        stats: PassStats,
) -> Dict[Answer, ValuationBlock]:
    """One columnar valuation pass, grouped by head tuple.

    ``atoms`` holds, per query atom, its candidate rows and their
    per-variable code columns (:meth:`ColumnStore.gather` of the greedy
    planner's surviving row ids — ``_build_plans`` of
    :class:`~repro.relational.evaluation.QueryEvaluator` already applied
    constants, intra-atom repeats and the semi-join fixpoint); ``order`` is
    the planner's join order.  Every run adds to the join and block
    counters of ``stats``; only the caller knows whether it was a full pass
    (``columnar_passes``).
    """
    atom_rows = [rows for rows, _ in atoms]
    atom_cols = [cols for _, cols in atoms]

    first = order[0]
    length = len(atom_rows[first])
    block_vars: Dict[Variable, CodeColumn] = {
        variable: list(column)
        for variable, column in atom_cols[first].items()
    }
    block_rowids: Dict[int, List[int]] = {first: list(range(length))}

    for atom_index in order[1:]:
        cols = atom_cols[atom_index]
        shared = sorted((v for v in cols if v in block_vars),
                        key=lambda variable: variable.name)
        new_vars = [v for v in cols if v not in block_vars]
        n_build = len(atom_rows[atom_index])
        if not shared:
            out_sel, out_match = _cross_product(length, n_build)
        else:
            out_sel, out_match = _probe(
                block_vars, _build_hash_table(cols, shared), shared)
        stats.joins += 1
        block_vars = {
            variable: [column[index] for index in out_sel]
            for variable, column in block_vars.items()
        }
        for variable in new_vars:
            column = cols[variable]
            block_vars[variable] = [column[index] for index in out_match]
        block_rowids = {
            index: [column[i] for i in out_sel]
            for index, column in block_rowids.items()
        }
        block_rowids[atom_index] = out_match
        length = len(out_sel)

    stats.block_rows += length
    if not length:
        return {}
    rowid_columns = [block_rowids[index] for index in range(len(atoms))]
    groups = _group_by_head(query, block_vars, rowid_columns, atom_rows,
                            length)
    stats.blocks_produced += len(groups)
    return groups


def _group_by_head(
        query: ConjunctiveQuery,
        block_vars: Mapping[Variable, CodeColumn],
        rowid_columns: Sequence[CodeColumn],
        atom_rows: Sequence[Sequence[Tuple]],
        length: int,
) -> Dict[Answer, ValuationBlock]:
    """Bucket the joined block by head codes; one block per answer."""
    head_vars = [term for term in query.head if isinstance(term, Variable)]
    buckets: Dict[Any, List[int]] = {}
    if not head_vars:
        buckets[()] = list(range(length))
    elif len(head_vars) == 1:
        for index, code in enumerate(block_vars[head_vars[0]]):
            bucket = buckets.get(code)
            if bucket is None:
                buckets[code] = [index]
            else:
                bucket.append(index)
    else:
        for index, codes in enumerate(
                zip(*(block_vars[v] for v in head_vars))):
            bucket = buckets.get(codes)
            if bucket is None:
                buckets[codes] = [index]
            else:
                bucket.append(index)

    shared_rows = tuple(atom_rows)
    groups: Dict[Answer, ValuationBlock] = {}
    for key, indices in buckets.items():
        assignment: Dict[Variable, Any] = {}
        if head_vars:
            # Decode head values through the matched tuples of any one row
            # of the bucket rather than through the dictionary: the bucket
            # key is the code tuple, and every row of the bucket carries
            # the same head values by construction.
            assignment = _head_assignment(query, shared_rows, rowid_columns,
                                          indices[0])
        head = tuple(
            assignment[term] if isinstance(term, Variable) else term.value
            for term in query.head
        )
        rowids = tuple(
            array("q", (column[index] for index in indices))
            for column in rowid_columns
        )
        groups[head] = ValuationBlock(shared_rows, rowids)
    return groups


def _head_assignment(
        query: ConjunctiveQuery,
        atom_rows: Sequence[Sequence[Tuple]],
        rowid_columns: Sequence[CodeColumn],
        row: int,
) -> Dict[Variable, Any]:
    """Head-variable values of one joined row, read off its matched tuples."""
    assignment: Dict[Variable, Any] = {}
    needed = {term for term in query.head if isinstance(term, Variable)}
    for atom_index, atom in enumerate(query.atoms):
        if not needed:
            break
        tup = atom_rows[atom_index][rowid_columns[atom_index][row]]
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and term in needed:
                assignment[term] = tup.values[position]
                needed.discard(term)
    return assignment
