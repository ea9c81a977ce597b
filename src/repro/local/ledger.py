"""Round accounting across composed algorithm phases.

Distributed colorings in this paper are compositions: "color the connector,
then recurse on every color class *in parallel*, then merge". A
:class:`RoundLedger` records the cost of each phase — both the rounds the
simulator actually executed and the closed-form *modeled* rounds of the
oracle the paper cites — and composes them with the LOCAL-model semantics:

* sequential phases add,
* parallel branches cost the maximum over branches (they run simultaneously
  on disjoint parts of the network).

:meth:`RoundLedger.per_class` is that composition written once: every
class recursion of the library goes through it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


@dataclass
class LedgerEntry:
    label: str
    actual: float
    modeled: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}: actual={self.actual:g}, modeled={self.modeled:g}"


@dataclass
class RoundLedger:
    """A tree-structured account of simulated and modeled rounds."""

    label: str = "total"
    entries: List[LedgerEntry] = field(default_factory=list)
    children: List["RoundLedger"] = field(default_factory=list)

    def add(self, label: str, actual: float, modeled: Optional[float] = None) -> None:
        """Record a sequential phase. ``modeled`` defaults to ``actual``."""
        if actual < 0:
            raise ValueError("round counts cannot be negative")
        self.entries.append(
            LedgerEntry(label=label, actual=float(actual), modeled=float(modeled if modeled is not None else actual))
        )

    @contextmanager
    def parallel(self, label: str) -> Iterator["ParallelScope"]:
        """Open a scope whose branches execute simultaneously.

        On exit the scope contributes ``max`` over its branches to this
        ledger, as a single sequential entry.
        """
        scope = ParallelScope(label)
        yield scope
        actual = max((b.total_actual for b in scope.branches), default=0.0)
        modeled = max((b.total_modeled for b in scope.branches), default=0.0)
        self.entries.append(LedgerEntry(label=label, actual=actual, modeled=modeled))
        self.children.extend(scope.branches)

    def per_class(
        self,
        label: str,
        classes: Mapping[Any, List[Any]],
        color_class: Callable[[List[Any], "RoundLedger"], Mapping[Any, Tuple[Any, ...]]],
    ) -> Dict[Any, Tuple[Any, ...]]:
        """Recurse on every color class in parallel and combine.

        The paper's one composition: ``color_class(members, branch)`` colors
        the class ``c`` on its own branch ledger ``class-{c}`` (classes are
        visited in sorted order) and returns a tuple per member; the result
        prefixes each with its class, giving ``(c,) + inner[k]``.
        """
        product: Dict[Any, Tuple[Any, ...]] = {}
        with self.parallel(label) as scope:
            for c in sorted(classes):
                members = classes[c]
                inner = color_class(members, scope.branch(f"class-{c}"))
                for k in members:
                    product[k] = (c,) + inner[k]
        return product

    @property
    def total_actual(self) -> float:
        return sum(e.actual for e in self.entries)

    @property
    def total_modeled(self) -> float:
        return sum(e.modeled for e in self.entries)

    def summary(self) -> str:
        lines = [f"{self.label}: actual={self.total_actual:g} modeled={self.total_modeled:g}"]
        for entry in self.entries:
            lines.append(f"  - {entry!r}")
        return "\n".join(lines)


class ParallelScope:
    """Collects the branch ledgers of a parallel composition."""

    def __init__(self, label: str):
        self.label = label
        self.branches: List[RoundLedger] = []

    def branch(self, label: str) -> RoundLedger:
        ledger = RoundLedger(label=f"{self.label}/{label}")
        self.branches.append(ledger)
        return ledger
