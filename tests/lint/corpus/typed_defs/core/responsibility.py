"""Known-bad: unannotated signatures in the exact engine's strict tier.

``core/responsibility.py`` is a file-granular scope entry of the
``typed-defs`` rule: the batch engine hands it each answer's coded lineage.
"""


class CodedLineage:
    def __init__(self, formula: str):  # expect: typed-defs
        self.formula = formula

    def minimum_contingency(self, tuple_) -> None:  # expect: typed-defs
        return None
