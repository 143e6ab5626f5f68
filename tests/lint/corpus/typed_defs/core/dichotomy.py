"""Out of scope: ``core/dichotomy.py`` is not in the strict tier.

Within ``core/`` the ``typed-defs`` scope is file-granular (only the
responsibility engines and the hitting-set solver), so unannotated defs
here produce no findings.
"""


def classify(query):
    return str(query)
