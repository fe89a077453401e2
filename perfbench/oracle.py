"""Correctness checks that live apart from the program under test.

Definition 3.8 is recomputed here from the live member list alone:
suffix classes come from each member's digit tuple, an entry must be
non-null exactly when its class is non-empty, and every occupant must
be live and carry the entry's required suffix.  Nothing here calls the
program's own checkers (``repro.consistency``), which are themselves
measured layers; the tables are read only through
``NeighborTable.get``.

Each check returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Set

#: Problems kept per check (the count is always reported in full).
MAX_REPORTED = 5


def definition_38(tables: Mapping, departed: Iterable = ()) -> List[str]:
    """Recompute Definition 3.8 over ``{member: table}``.

    ``departed`` names nodes known to have left or crashed; an entry
    naming one is reported as such, beside the generic liveness rule.
    """
    members = list(tables)
    if not members:
        return ["no live members"]
    live: Set = set(members)
    gone: Set = set(departed)
    classes: Set[tuple] = set()
    num_digits = len(members[0].digits)
    base = members[0].base
    for member in members:
        digits = member.digits
        for k in range(num_digits + 1):
            classes.add(digits[:k])
    problems: List[str] = []
    count = 0
    for member in members:
        table = tables[member]
        digits = member.digits
        for level in range(num_digits):
            shared = digits[:level]
            for digit in range(base):
                wanted = shared + (digit,)
                occupant = table.get(level, digit)
                if wanted not in classes:
                    if occupant is not None:
                        count += 1
                        if len(problems) < MAX_REPORTED:
                            problems.append(
                                f"{member} ({level},{digit}) holds "
                                f"{occupant} but its class is empty"
                            )
                    continue
                if occupant is None:
                    reason = "is null but its class is non-empty"
                elif occupant in gone:
                    reason = f"names departed node {occupant}"
                elif occupant not in live:
                    reason = f"names non-member {occupant}"
                elif occupant.digits[: level + 1] != wanted:
                    reason = f"holds {occupant} of the wrong suffix"
                else:
                    continue
                count += 1
                if len(problems) < MAX_REPORTED:
                    problems.append(f"{member} ({level},{digit}) {reason}")
    if count > len(problems):
        problems.append(f"... {count} Definition 3.8 violations in all")
    return problems


def all_in_system(statuses: Mapping) -> List[str]:
    """Theorem 2: every joiner ends *in_system*."""
    stuck = [node for node, status in statuses.items()
             if status.value != "in_system"]
    if not stuck:
        return []
    shown = ", ".join(str(node) for node in stuck[:MAX_REPORTED])
    return [f"{len(stuck)} joiners not in_system: {shown}"]


def theorem3(
    joiners: Iterable, sent_by: Callable[[object, str], int], num_digits: int
) -> List[str]:
    """Theorem 3: CpRstMsg + JoinWaitMsg <= d + 1 for every joiner."""
    bound = num_digits + 1
    over = []
    for joiner in joiners:
        big = sent_by(joiner, "CpRstMsg") + sent_by(joiner, "JoinWaitMsg")
        if big > bound:
            over.append(f"{joiner} sent {big} > {bound}")
    if not over:
        return []
    return [f"Theorem 3: {len(over)} joiners over d+1: "
            + "; ".join(over[:MAX_REPORTED])]


def theorem5_mean(
    join_noti: List[int], bound: float
) -> List[str]:
    """Theorem 5: the mean JoinNotiMsg per joiner stays within the
    analytical upper bound."""
    mean = sum(join_noti) / len(join_noti)
    if mean <= bound:
        return []
    return [f"Theorem 5: mean JoinNotiMsg {mean:.4f} > bound {bound:.4f}"]

