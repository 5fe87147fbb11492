"""Distinct HDL identifiers for the nodes of a netlist.

Sanitising alone can map two nodes onto one identifier (``Node`` and
``node`` both become ``node``), declaring one signal twice and wiring two
outputs to one net, so both emitters name nodes through this module.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

#: the entity / module ports every emitted design declares
PORTS = ("features", "outputs")


def unique_identifiers(names: Iterable[str], sanitise: Callable[[str], str]) -> Dict[str, str]:
    """Map each name to a distinct sanitised identifier, deterministically.

    Names are taken in order; one whose identifier ``x`` (or its truth
    table's ``table_x``) is already claimed, by a port or an earlier name,
    becomes ``x_1``, ``x_2``, ... — the first that is free.
    """
    taken = set(PORTS)
    identifiers: Dict[str, str] = {}
    for name in names:
        base = identifier = sanitise(name)
        suffix = 0
        while identifier in taken or f"table_{identifier}" in taken:
            suffix += 1
            identifier = f"{base}_{suffix}"
        taken.update((identifier, f"table_{identifier}"))
        identifiers[name] = identifier
    return identifiers
