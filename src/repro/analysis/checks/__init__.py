"""Rule catalogue for reprolint.

Importing this package registers every check on
:data:`repro.analysis.core.LINT_CHECKS` (it is that registry's lazy
loader module).  One module per rule, named after its code.
"""

from __future__ import annotations

from . import rep001, rep002, rep004, rep006, rep007

__all__ = [
    "rep001",
    "rep002",
    "rep004",
    "rep006",
    "rep007",
]
