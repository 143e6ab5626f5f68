"""Out of scope: ``core/dichotomy.py`` is not in the strict tier.

Within ``core/`` the ``typed-defs`` scope is file-granular (only the flow
engine), so unannotated defs here produce no findings.
"""


def classify(query):
    return str(query)
