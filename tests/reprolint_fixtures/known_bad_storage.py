"""Deliberately invariant-violating storage module for the lint self-check.

Counterpart of ``known_bad.py`` for the out-of-core graph store rules:
every statement here trips a REP rule the ``.rgs`` format depends on.  CI
lints this file and asserts the linter *fails* — if a refactor ever makes
the analyzer pass this file, the storage gate has gone no-op.  Never
"fix" this module.  (A store column with a native or object dtype is not
here: ``StoreSchema(...)`` refuses to construct one, so there is nothing
for a linter to find.)
"""

import time

import numpy as np


def plan_spill_buckets(degrees):
    salt = np.random.default_rng()                 # REP001: unseeded bucket salt
    stamp = time.perf_counter()                    # REP006: clock in convert path
    return degrees + salt.integers(0, 4, degrees.size), stamp
