"""Deterministic link impairment: loss, duplication, bounded reorder, delay.

A packet entering as the k-th submission draws a release key in
[k, k + reorder_depth] and stays buffered until a submission with index
>= key arrives.  Both forward and backward displacement are therefore
bounded by reorder_depth, which is what lets tests assert exact
reassembly behavior under a known worst case instead of hoping the
shuffle was mean enough.

Every random draw comes from an RNG derived from (seed, label), so two
hops in one scenario impair independently yet the whole run replays
bit-for-bit from the scenario seed.  An identity profile draws nothing
and buffers nothing: each packet is delivered at its submission time.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, fields

__all__ = ["ImpairmentProfile", "ImpairHop", "impair", "derive_rng"]

MS = 1_000_000  # ns


@dataclass(frozen=True)
class ImpairmentProfile:
    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_depth: int = 0  # max packet displacement, 0 = in order
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    seed: int | None = None  # overrides the hop seed when set

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob {self.loss_prob} outside [0, 1]")
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise ValueError(f"duplicate_prob {self.duplicate_prob} outside [0, 1]")
        if self.reorder_depth < 0:
            raise ValueError("reorder_depth must be >= 0")
        if self.delay_ms < 0 or self.jitter_ms < 0:
            raise ValueError("delays must be >= 0")

    @property
    def is_identity(self) -> bool:
        return (
            self.loss_prob == 0
            and self.duplicate_prob == 0
            and self.reorder_depth == 0
            and self.delay_ms == 0
            and self.jitter_ms == 0
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ImpairmentProfile":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown impairment keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def derive_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ImpairHop:
    """One impaired link; packets are opaque objects.

    submit() returns (deliveries, dropped): deliveries is a list of
    (deliver_at_ns, packet) released by this submission, dropped lists
    the copies of the submitted packet that the link ate.
    """

    def __init__(self, profile: ImpairmentProfile, seed: int = 0, label: str = "hop"):
        self.profile = profile
        if profile.seed is not None:
            seed = profile.seed
        self.rng = derive_rng(seed, label)
        self._identity = profile.is_identity
        self._entry = 0
        self._seq = 0
        self._pending: list = []  # heap of (release_key, seq, packet)
        self.submitted = 0
        self.lost = 0
        self.duplicated = 0

    def submit(self, now_ns: int, packet):
        self.submitted += 1
        if self._identity:
            return [(now_ns, packet)], ()
        p = self.profile
        rng = self.rng
        k = self._entry
        self._entry += 1
        copies = 1
        if p.duplicate_prob and rng.random() < p.duplicate_prob:
            copies = 2
            self.duplicated += 1
        dropped = []
        for _ in range(copies):
            if p.loss_prob and rng.random() < p.loss_prob:
                self.lost += 1
                dropped.append(packet)
                continue
            key = k
            if p.reorder_depth:
                # rng.randint(0, depth) without its three Python frames:
                # the same rejection sampling on getrandbits, the same draws
                n = p.reorder_depth + 1
                bits = n.bit_length()
                r = rng.getrandbits(bits)
                while r >= n:
                    r = rng.getrandbits(bits)
                key += r
            # ties release newest-first, otherwise depth 1 could never swap
            heapq.heappush(self._pending, (key, -self._seq, packet))
            self._seq += 1
        deliveries = []
        pending = self._pending
        while pending and pending[0][0] <= k:
            pkt = heapq.heappop(pending)[2]
            deliveries.append((self._deliver_at(now_ns), pkt))
        return deliveries, dropped

    def flush(self, now_ns: int) -> list:
        """Release everything still buffered, in key order."""
        out = []
        while self._pending:
            _, _, pkt = heapq.heappop(self._pending)
            out.append((self._deliver_at(now_ns), pkt))
        return out

    def _deliver_at(self, now_ns: int) -> int:
        delay_ms = self.profile.delay_ms
        if self.profile.jitter_ms:
            delay_ms += self.rng.uniform(0.0, self.profile.jitter_ms)
        return now_ns + int(delay_ms * MS)


def impair(packets, profile: ImpairmentProfile, seed: int = 0, label: str = "hop"):
    """List-in, list-out form for tests: packets spaced 1 ms apart.

    The returned order is delivery order (delivery time, then release
    order), so a profile with only reorder_depth set yields exactly the
    bounded shuffle and nothing else.
    """
    hop = ImpairHop(profile, seed=seed, label=label)
    timed = []
    for i, pkt in enumerate(packets):
        deliveries, _ = hop.submit(i * MS, pkt)
        timed.extend(deliveries)
    timed.extend(hop.flush(len(packets) * MS))
    # sorted() is stable, so equal delivery times keep release order
    return [pkt for _, pkt in sorted(timed, key=lambda e: e[0])]
