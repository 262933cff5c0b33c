"""Settings that every subcommand resolves, and the readers that check them.

The cross-check tolerance and the linkage weights live here rather than in
crosscheck and verify, so that resolving a run's config, and recording it in
run.json, loads neither pipeline. Both modules re-export their class.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

# Days after a moderation decision within which its statement is due.
DEFAULT_DEADLINE_DAYS = 7


class SettingError(ValueError):
    """A setting of the wrong type, or a key that names no setting."""


def _known_keys(data: Mapping[str, object], known: Iterable[str], name: str) -> None:
    """Refuse a key of `data` outside `known`: a misspelt setting would
    otherwise leave its default in force without a word."""
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise SettingError(f"{name}: unknown key {unknown[0]!r}")


def _integer(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SettingError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value: object, name: str) -> float:
    # The magnitude test refuses NaN, the infinities and integers that no float holds.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise SettingError(f"{name} must be a finite number, got {value!r}")
    return value


# A record that validates is a named tuple of its fields, subclassed by the
# public class, whose __new__ checks the tuple it builds.
class _ToleranceFields(NamedTuple):
    absolute_floor: float = 0.0
    relative: float = 0.0
    rounding_aware: bool = True
    approximate_relative: float = 0.05


class ToleranceSpec(_ToleranceFields):
    """How much slack a reported value gets before it counts as a mismatch.

    rounding_aware grants ROUNDED(d) values half a unit in their last
    significant digit; approximate_relative replaces relative for hedged
    values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.absolute_floor < 0 or self.relative < 0 or self.approximate_relative < 0:
            raise ValueError("tolerance fields must be non-negative")
        if self.approximate_relative < self.relative:
            raise ValueError("approximate_relative must be at least relative")
        if not isinstance(self.rounding_aware, bool):
            raise ValueError("rounding_aware must be true or false")
        return self


class _LinkFields(NamedTuple):
    category_weight: Fraction = Fraction(1, 2)
    decision_weight: Fraction = Fraction(3, 10)
    time_weight: Fraction = Fraction(1, 5)
    threshold: Fraction = Fraction(7, 10)
    max_day_distance: int = 3


class LinkConfig(_LinkFields):
    """Fuzzy-pairing weights and acceptance threshold, exact rationals."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.category_weight, self.decision_weight, self.time_weight, self.threshold) < 0:
            raise ValueError("linkage weights and threshold must be non-negative")
        if self.max_day_distance < 1:
            raise ValueError("max_day_distance must be at least 1")
        return self

    def score(self, category_equal: bool, decision_equal: bool, day_distance: int) -> Fraction:
        """Score of a rebuilt/filed pair from its feature comparison; the day
        distance is clamped at max_day_distance."""
        score = Fraction(0)
        if category_equal:
            score += self.category_weight
        if decision_equal:
            score += self.decision_weight
        clamped = min(day_distance, self.max_day_distance)
        score += self.time_weight * (1 - Fraction(clamped, self.max_day_distance))
        return score
