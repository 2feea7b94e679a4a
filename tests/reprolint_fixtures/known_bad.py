"""Deliberately invariant-violating module for the reprolint self-check.

Every statement here trips one of the REP rules.  CI lints this file and
asserts the linter *fails* — if a refactor ever makes the analyzer pass
this file, the gate itself has gone no-op.  Never "fix" this module.
"""

import random
import time

import numpy as np

rng = np.random.default_rng()                      # REP001: unseeded
noise = np.random.rand(4)                          # REP001: global RNG
pick = random.choice([1, 2, 3])                    # REP001: stdlib random


def fold(weights: dict) -> float:
    total = 0.0
    for value in weights.values():                 # REP002: unsorted fold
        total += value
    return total


def kernel(ctx, state, messages):
    started = time.perf_counter()                  # REP006: wall clock
    ctx.send(0, {"fn": lambda x: x + 1})           # REP004: lambda payload
    return started


class Holder:
    def __init__(self):
        self.transform = lambda x: 2 * x           # REP004: pickled lambda

    def make_class(self):
        class Local:                               # REP004: local class
            pass

        return Local
