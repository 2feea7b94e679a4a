"""Correctness checks on what a benchmark job produced.

Each function returns a list of failure messages (empty = pass); any
failure turns the rep into a failed operation and the benchmark's exit
code non-zero.  The quality figures are recomputed here independently of
``repro.objectives`` — a partition job that gets faster by returning a
worse or malformed answer must not pass.
"""

from __future__ import annotations

import hashlib

import numpy as np


def assignment_digest(assignment: np.ndarray) -> str:
    """SHA-256 of the assignment as little-endian int64 bytes."""
    return hashlib.sha256(np.asarray(assignment, dtype="<i8").tobytes()).hexdigest()


def independent_fanout(graph, assignment: np.ndarray, k: int) -> float:
    """Average fanout from distinct (query, bucket) pairs — no shared code."""
    if graph.num_queries == 0:
        return 0.0
    query_of_pin = np.repeat(
        np.arange(graph.num_queries, dtype=np.int64), np.diff(graph.q_indptr)
    )
    bucket_of_pin = np.asarray(assignment, dtype=np.int64)[np.asarray(graph.q_indices)]
    pair = query_of_pin * k + bucket_of_pin
    return float(np.unique(pair).size / graph.num_queries)


def check_assignment(assignment, num_data: int, k: int) -> list[str]:
    assignment = np.asarray(assignment)
    if assignment.shape != (num_data,):
        return [f"assignment shape {assignment.shape} != ({num_data},)"]
    if not np.issubdtype(assignment.dtype, np.integer):
        return [f"assignment dtype {assignment.dtype} is not integral"]
    if assignment.size and (assignment.min() < 0 or assignment.max() >= k):
        return [f"assignment range [{assignment.min()}, {assignment.max()}] outside [0, {k})"]
    return []


def check_balance(assignment, k: int, epsilon: float, bernoulli: bool) -> list[str]:
    """Every bucket holds at most ``(1 + eps) n / k`` vertices, plus slack.

    The in-process optimizer swaps strictly, so its slack is one vertex
    (rounding).  The engine flips one coin per vertex (``swap_mode =
    "bernoulli"``: balance holds in expectation), so it gets the standard
    deviation of a bucket's size, ``sqrt(n / k)`` vertices.
    """
    sizes = np.bincount(np.asarray(assignment), minlength=k)
    mean = len(assignment) / k
    slack = int(np.ceil(np.sqrt(mean))) if bernoulli else 1
    cap = int(np.floor((1.0 + epsilon) * mean)) + slack
    if sizes.max() > cap:
        return [f"largest bucket {int(sizes.max())} exceeds (1+{epsilon})n/k + {slack} = {cap}"]
    return []


def check_partition(
    graph, assignment, k: int, epsilon: float, bernoulli: bool,
    reported_fanout: float, seed: int,
) -> list[str]:
    """Shape, range, balance, reported == recomputed fanout, beats random."""
    failures = check_assignment(assignment, graph.num_data, k)
    if failures:
        return failures
    failures += check_balance(assignment, k, epsilon, bernoulli)
    recomputed = independent_fanout(graph, assignment, k)
    if abs(recomputed - reported_fanout) > 1e-9:
        failures.append(f"reported fanout {reported_fanout!r} != recomputed {recomputed!r}")
    random_labels = np.random.default_rng(seed).integers(0, k, size=graph.num_data)
    random_fanout = independent_fanout(graph, random_labels, k)
    if not recomputed < random_fanout:
        failures.append(f"fanout {recomputed:.4f} does not beat a random labeling's "
                        f"{random_fanout:.4f}")
    return failures


def check_serving(rows: list[dict], budget: float, rounds: int) -> list[str]:
    """Every repair round migrated at most ``budget`` of the records."""
    failures = []
    if len(rows) != rounds + 1:
        failures.append(f"{len(rows)} round reports, expected {rounds + 1}")
    for row in rows:
        if row["churn %"] > 100.0 * budget + 1e-9:
            failures.append(f"round {row['round']} migrated {row['churn %']}% > budget "
                            f"{100.0 * budget}%")
    return failures


def check_same_graph(view, graph, label: str) -> list[str]:
    """A converted store view is array-equal to the in-memory CSR."""
    failures = []
    if (view.num_queries, view.num_data) != (graph.num_queries, graph.num_data):
        return [f"{label}: shape {view.num_queries}x{view.num_data} != "
                f"{graph.num_queries}x{graph.num_data}"]
    for name in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
        if not np.array_equal(getattr(view, name), getattr(graph, name)):
            failures.append(f"{label}: {name} differs from the .npz graph")
    return failures


def check_reps_agree(results: list[dict]) -> list[str]:
    """Same seed, same inputs: every rep's assignment digest is identical."""
    digests = {r["digest"] for r in results if r.get("digest")}
    if len(digests) > 1:
        return [f"assignment differs between reps: {sorted(d[:12] for d in digests)}"]
    return []


def check_matches_reference(result: dict, reference: dict) -> list[str]:
    """Bitwise-equal assignment; identical logical meters on engine jobs."""
    failures = []
    if result["digest"] != reference["digest"]:
        failures.append(
            f"assignment != {reference['workload']}'s "
            f"({result['digest'][:12]} vs {reference['digest'][:12]})"
        )
    for meter in ("messages", "remote_bytes", "supersteps"):
        ours, theirs = result["meters"].get(meter), reference["meters"].get(meter)
        if ours != theirs:
            failures.append(f"{meter} {ours} != {reference['workload']}'s {theirs}")
    return failures
