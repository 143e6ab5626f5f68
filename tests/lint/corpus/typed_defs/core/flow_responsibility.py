"""Known-bad: unannotated signatures in the flow engine's strict tier.

``core/flow_responsibility.py`` is a file-granular scope entry of the
``typed-defs`` rule: the flow engine takes the session's evaluator across
the backend seam, so its signatures are held to the seam's standard.
"""


class FlowEngine:
    def __init__(self, query: str, evaluator) -> None:  # expect: typed-defs
        self.query = query
        self.evaluator = evaluator

    def responsibility(self, tuple_: str) -> int:
        return len(tuple_)


def flow_responsibility(query, database, tuple_: str):  # expect: typed-defs, typed-defs
    return FlowEngine(query, database).responsibility(tuple_)
