"""Per-request latency model for the storage-sharding experiments (§4.2.1).

A multi-get query fans out to several servers in parallel; its latency is
the *maximum* of the per-request latencies, so heavier fanout samples deeper
into the per-request tail — the paper's fundamental argument for fanout
minimization ("the tail at scale" [12]).

Per-request latency is drawn from a lognormal (the standard heavy-tailed
service-time model) normalized to mean ``base_ms`` = the paper's unit ``t``,
plus a linear request-size term: Section 5 observes that the size of a
request to a server also matters (a 99/1 record split answers slower than
50/50), which this term reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyModel", "percentile_curve"]


@dataclass(frozen=True)
class LatencyModel:
    """Heavy-tailed per-request latency with a request-size component."""

    base_ms: float = 1.0  # mean latency of a single trivial request ("t")
    sigma: float = 0.8  # lognormal shape: higher = heavier tail
    size_ms_per_record: float = 0.0  # marginal cost per record requested

    def draw(
        self, rng: np.random.Generator, records_per_request: np.ndarray
    ) -> np.ndarray:
        """Latency of one request per entry of ``records_per_request``."""
        records = np.asarray(records_per_request, dtype=np.float64)
        mu = -0.5 * self.sigma**2  # normalize lognormal mean to 1
        tail = rng.lognormal(mean=mu, sigma=self.sigma, size=records.shape)
        return self.base_ms * tail + self.size_ms_per_record * records

    def multiget_batch(
        self,
        rng: np.random.Generator,
        records_per_request: np.ndarray,
        request_starts: np.ndarray,
    ) -> np.ndarray:
        """Latencies of many multi-gets from one vectorized lognormal pass.

        ``records_per_request`` concatenates every query's per-server record
        counts; ``request_starts[i]`` is the offset of query ``i``'s first
        request (segments contiguous and non-empty).  Returns one latency
        per query: the slowest of its parallel per-request draws.
        """
        if request_starts.size == 0:
            return np.zeros(0, dtype=np.float64)
        draws = self.draw(rng, records_per_request)
        return np.maximum.reduceat(draws, request_starts)

    def fanout_latency_matrix(
        self, rng: np.random.Generator, fanout: int, trials: int
    ) -> np.ndarray:
        """``trials`` multi-get latencies at a fixed fanout of trivial requests."""
        draws = self.draw(rng, np.ones((trials, max(1, fanout))))
        return draws.max(axis=1)


def percentile_curve(
    model: LatencyModel,
    fanouts: np.ndarray,
    percentiles: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0),
    trials: int = 4000,
    seed: int = 0,
) -> dict[float, np.ndarray]:
    """Latency percentiles (in units of t) as a function of fanout (Fig. 4a)."""
    rng = np.random.default_rng(seed)
    out = {p: np.empty(len(fanouts)) for p in percentiles}
    for idx, fanout in enumerate(np.asarray(fanouts, dtype=np.int64)):
        samples = model.fanout_latency_matrix(rng, int(fanout), trials)
        for p in percentiles:
            out[p][idx] = np.percentile(samples, p) / model.base_ms
    return out
