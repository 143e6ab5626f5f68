"""Known-bad: unannotated signatures in the Why-No procedure's strict tier.

``core/whyno.py`` is a file-granular scope entry of the ``typed-defs``
rule: the per-call API and the batched Why-No engine both read causes off
its per-tuple helper.
"""


def whyno_contingency_from_n_lineage(phi_n, tuple_: str) -> None:  # expect: typed-defs
    return None


def whyno_causes_from_n_lineage(phi_n: str):  # expect: typed-defs
    return []
