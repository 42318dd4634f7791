"""Decision tree over TAI outcomes and the implied extinction probability.

Four conditional probabilities span the tree: arrival of transformative AI
within the horizon (p1), AI takeover given arrival (p2), misalignment given
takeover (p3), and non-corrigibility given an aligned takeover (p4).  Two
branches end in doom; the rest are survivable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = ["TaxonomyProbs", "LeafDistribution", "p_doom", "leaf_distribution"]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class TaxonomyProbs:
    """Branch probabilities of the outcome tree.

    p1: TAI arrives within the horizon
    p2: AI takeover, conditional on TAI
    p3: misaligned from the outset, conditional on takeover
    p4: non-corrigible, conditional on an initially aligned takeover
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        for f in ("p1", "p2", "p3", "p4"):
            _check_probability(f, getattr(self, f))


@dataclass(frozen=True)
class LeafDistribution:
    """Probabilities of the five terminal outcomes; always sums to one."""

    no_tai: float
    tai_no_takeover: float
    cornucopia: float
    doom_immediate: float
    doom_delayed: float

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_probability(f.name, getattr(self, f.name))
        total = (
            self.no_tai
            + self.tai_no_takeover
            + self.cornucopia
            + self.doom_immediate
            + self.doom_delayed
        )
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"leaf probabilities sum to {total!r}, expected 1")

    @property
    def survival(self) -> float:
        return self.no_tai + self.tai_no_takeover + self.cornucopia


def p_doom(probs: TaxonomyProbs) -> float:
    """Total extinction probability: p1 p2 p3 + p1 p2 (1-p3) p4."""
    immediate = probs.p1 * probs.p2 * probs.p3
    delayed = probs.p1 * probs.p2 * (1.0 - probs.p3) * probs.p4
    return immediate + delayed


def leaf_distribution(probs: TaxonomyProbs) -> LeafDistribution:
    """Split unit mass across the five leaves of the outcome tree.

    The two doom leaves use the same arithmetic as :func:`p_doom`, so
    ``p_doom(probs) == doom_immediate + doom_delayed`` holds exactly.
    """
    p1, p2, p3, p4 = probs.p1, probs.p2, probs.p3, probs.p4
    return LeafDistribution(
        no_tai=1.0 - p1,
        tai_no_takeover=p1 * (1.0 - p2),
        cornucopia=p1 * p2 * (1.0 - p3) * (1.0 - p4),
        doom_immediate=p1 * p2 * p3,
        doom_delayed=p1 * p2 * (1.0 - p3) * p4,
    )
