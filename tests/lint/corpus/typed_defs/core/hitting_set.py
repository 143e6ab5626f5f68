"""Known-bad: unannotated signatures in the hitting-set solver's strict tier.

``core/hitting_set.py`` is a file-granular scope entry of the ``typed-defs``
rule, like the two responsibility engines that call it.
"""


def greedy_hitting_set(sets):  # expect: typed-defs, typed-defs
    return 0


def minimum_hitting_set(sets: list, forbidden=frozenset()) -> frozenset:  # expect: typed-defs
    return frozenset()
