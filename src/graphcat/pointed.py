"""Basepoint-added finite sets and partial maps between them."""

from dataclasses import dataclass

from .digraph import cached_property


@dataclass(frozen=True)
class PointedMap:
    """A basepoint-preserving partial map between finite sets.

    ``mapping[x]`` is None when x goes to the basepoint.
    """

    source: tuple
    target: tuple
    pairs: tuple

    @cached_property
    def mapping(self):
        return dict(self.pairs)

    def __call__(self, x):
        return self.mapping[x]

    def is_active(self):
        """No element dies: only the basepoint maps to the basepoint."""
        return all(y is not None for y in self.mapping.values())

    def is_inert(self):
        """Every target element has exactly one preimage."""
        hits = [y for y in self.mapping.values() if y is not None]
        return len(hits) == len(set(hits)) and set(hits) == set(self.target)


def pointed_map(source, target, mapping):
    return PointedMap(
        tuple(source), tuple(target), tuple(sorted(mapping.items()))
    )


def compose_pointed(p, q):
    """q after p."""
    mapping = {
        x: (q.mapping[y] if y is not None else None)
        for x, y in p.mapping.items()
    }
    return pointed_map(p.source, q.target, mapping)
