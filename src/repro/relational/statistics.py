"""Cardinality and selectivity statistics.

Section 4.1 of the paper: the problem graph shaper uses "cardinality and
selectivity information from the DBMS schema" to determine
producer-consumer relationships, and the QPO's cost functions (Section
5.3.3) need result-size estimates to choose between cache-side and
remote-side execution.  These are textbook System-R-style estimates:
uniformity and independence assumptions over per-attribute distinct counts
and min/max values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.relation import Relation

#: Fallback selectivity for predicates we cannot estimate.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Fallback selectivity for equality against an unknown distribution.
DEFAULT_EQ_SELECTIVITY = 0.1


@dataclass
class AttributeStats:
    """Per-attribute summary: distinct count and value range."""

    distinct: int = 0
    minimum: object | None = None
    maximum: object | None = None

    def eq_selectivity(self) -> float:
        """Estimated fraction of rows matching an equality on this attribute."""
        if self.distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        return 1.0 / self.distinct

    def range_selectivity(self, op: str, value: object) -> float:
        """Fraction of rows passing ``attr op value``, by linear interpolation."""
        lo, hi = self.minimum, self.maximum
        if (
            lo is None
            or hi is None
            or not isinstance(value, (int, float))
            or not isinstance(lo, (int, float))
            or not isinstance(hi, (int, float))
        ):
            return DEFAULT_SELECTIVITY
        if hi == lo:
            if op in ("<", ">"):
                return 0.0 if (value <= lo if op == "<" else value >= lo) else 1.0
            return 1.0 if (lo <= value if op == "<=" else lo >= value) else 0.0
        span = hi - lo
        if op in ("<", "<="):
            fraction = (value - lo) / span
        else:
            fraction = (hi - value) / span
        return min(1.0, max(0.0, fraction))


@dataclass
class RelationStatistics:
    """Statistics for one relation: row count plus per-attribute summaries."""

    cardinality: int = 0
    attributes: dict[str, AttributeStats] = field(default_factory=dict)

    @classmethod
    def from_relation(cls, relation: Relation) -> "RelationStatistics":
        """Exact statistics computed by scanning the relation."""
        stats = cls(cardinality=len(relation))
        for attribute in relation.schema.attributes:
            values = relation.column(attribute)
            attr = AttributeStats(distinct=len(set(values)))
            comparable = [v for v in values if isinstance(v, (int, float))]
            if comparable and len(comparable) == len(values):
                attr.minimum = min(comparable)
                attr.maximum = max(comparable)
            elif values and all(isinstance(v, str) for v in values):
                attr.minimum = min(values)
                attr.maximum = max(values)
            stats.attributes[attribute] = attr
        return stats

    def attribute(self, name: str) -> AttributeStats:
        """Per-attribute summary (empty defaults when unknown)."""
        return self.attributes.get(name, AttributeStats())

    # -- selectivity ---------------------------------------------------------
    def selectivity(self, condition: Comparison) -> float:
        """Estimated fraction of rows satisfying ``condition``."""
        norm = condition.normalized()
        if isinstance(norm.left, Col) and isinstance(norm.right, Lit):
            attr = self.attribute(norm.left.name)
            if norm.op == "=":
                return attr.eq_selectivity()
            if norm.op == "!=":
                return 1.0 - attr.eq_selectivity()
            return attr.range_selectivity(norm.op, norm.right.value)
        if isinstance(norm.left, Col) and isinstance(norm.right, Col):
            if norm.op == "=":
                left = self.attribute(norm.left.name).distinct
                right = self.attribute(norm.right.name).distinct
                biggest = max(left, right)
                return 1.0 / biggest if biggest > 0 else DEFAULT_EQ_SELECTIVITY
            return DEFAULT_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def conjunction_selectivity(self, conditions: list[Comparison]) -> float:
        """Independence-assumption product of per-condition selectivities."""
        product = 1.0
        for condition in conditions:
            product *= self.selectivity(condition)
        return product

    def estimate_selection(self, conditions: list[Comparison]) -> float:
        """Estimated output cardinality of a selection."""
        return self.cardinality * self.conjunction_selectivity(conditions)
