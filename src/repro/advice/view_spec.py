"""View specifications — the first kind of advice (Section 4.2.1).

A view specification names a conjunctive definition the IE expects to query::

    d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?)    (R2)

Each answer position carries a *binding annotation*:

* ``^`` (**producer**): executing the corresponding CAQL query will produce
  bindings for this argument — advice *against* indexing it;
* ``?`` (**consumer**): the CAQL query will arrive with a constant here —
  "a prime candidate for indexing";
* unannotated: the position's role is unknown (antecedent-only variables
  are never annotated, since annotating them would imply an ordering).

The rule identifiers are "for human consumption rather than for use by the
CMS" (debugging and answer justification), and are carried verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import AdviceError
from repro.logic.terms import Const
from repro.caql.ast import ConjunctiveQuery


class Binding(enum.Enum):
    """The annotation on one answer position of a view specification."""

    PRODUCER = "^"
    CONSUMER = "?"
    UNKNOWN = ""

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ViewSpecification:
    """A named view definition with per-position binding annotations."""

    definition: ConjunctiveQuery
    annotations: tuple[Binding, ...]
    rule_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.annotations) != self.definition.arity:
            raise AdviceError(
                f"view {self.name}: {len(self.annotations)} annotations for "
                f"{self.definition.arity} answer positions"
            )
        for term, annotation in zip(self.definition.answers, self.annotations):
            if isinstance(term, Const) and annotation is not Binding.UNKNOWN:
                raise AdviceError(
                    f"view {self.name}: constant answer position cannot be annotated"
                )

    @property
    def name(self) -> str:
        """The view's name (its definition's head symbol)."""
        return self.definition.name

    # -- annotation queries -------------------------------------------------------
    def consumer_positions(self) -> tuple[int, ...]:
        """Answer positions the IE will supply constants for (index these)."""
        return tuple(
            i for i, a in enumerate(self.annotations) if a is Binding.CONSUMER
        )

    def is_pure_producer(self) -> bool:
        """True when no position is a consumer.

        Section 4.2.1: "If a given relation is strictly a producer relation
        ... then the CMS will be well advised to produce the relation
        lazily and without any indexing."
        """
        return not self.consumer_positions()

    # -- rendering -----------------------------------------------------------------
    def __str__(self) -> str:
        head_args = []
        for term, annotation in zip(self.definition.answers, self.annotations):
            head_args.append(f"{term}{annotation}")
        body = " & ".join(str(l) for l in self.definition.literals)
        rules = f"  ({', '.join(self.rule_ids)})" if self.rule_ids else ""
        return f"{self.name}({', '.join(head_args)}) =def {body}{rules}"


def annotate(definition: ConjunctiveQuery, pattern: str, rule_ids: tuple[str, ...] = ()) -> ViewSpecification:
    """Build a view specification from a compact annotation pattern.

    ``pattern`` has one character per answer position: ``^`` producer,
    ``?`` consumer, ``.`` unknown — e.g. ``annotate(q, "^?")``.
    """
    table = {"^": Binding.PRODUCER, "?": Binding.CONSUMER, ".": Binding.UNKNOWN}
    try:
        annotations = tuple(table[ch] for ch in pattern)
    except KeyError as exc:
        raise AdviceError(f"bad annotation character in {pattern!r}") from exc
    return ViewSpecification(definition, annotations, rule_ids)
