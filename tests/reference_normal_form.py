"""Reference determinacy for the tests: win-lose games checked label by
label, by scanning for a winning row or column.  The package decides
determinacy on reach masks instead; these are what it is compared with."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import eqtransfer as et


@dataclass(frozen=True)
class WinLoseGame:
    """Two-player structure plus a label word: bit 1 marks a player-1 win."""

    structure: et.GameStructure
    label: et.SubsetWord

    def __post_init__(self):
        if self.structure.players != 2:
            raise ValueError("win-lose games have exactly two players")
        if len(self.label) != self.structure.outcomes.size:
            raise ValueError("label length must equal the outcome count")


def derive_win_lose(st: et.GameStructure, label: et.SubsetWord) -> WinLoseGame:
    return WinLoseGame(st, label)


def winning_strategy(w: WinLoseGame) -> Optional[tuple[int, int]]:
    """A (player, strategy) guaranteeing that player's win, or None.

    Scans player 1's strategies in ascending index order first, then player 2's.
    """
    table = w.structure.table
    bits = np.asarray(w.label.bits, dtype=bool)
    wins = bits[table]  # True where player 1 wins
    for i in range(w.structure.strategy_counts[0]):
        if wins[i, :].all():
            return (1, i)
    for j in range(w.structure.strategy_counts[1]):
        if not wins[:, j].any():
            return (2, j)
    return None


def can_enforce(st: et.GameStructure, player: int,
                subset: et.SubsetWord) -> bool:
    """True iff the player has a strategy keeping the outcome inside the subset."""
    return et.enforcing_strategy(st, player, subset) is not None


def is_determined_by_enforcement(st: et.GameStructure,
                                 cap: int = et.DEFAULT_OUTCOME_CAP) -> bool:
    """Equivalent characterisation: each subset is enforced by player 1 or
    its complement is enforced by player 2."""
    n = st.outcomes.size
    if n > cap:
        raise et.TooLargeError(f"{n} outcomes exceed determinacy cap {cap}")
    return all(can_enforce(st, 1, lab) or can_enforce(st, 2, lab.complement())
               for lab in et.all_labels(n))


def brute_is_determined(st: et.GameStructure) -> bool:
    """Every label has a winner, found by scanning rows and columns."""
    return all(winning_strategy(derive_win_lose(st, lab)) is not None
               for lab in et.all_labels(st.outcomes.size))


def backward_induction_oracle(t: et.GameTree) -> et.TreeOracle:
    return et.TreeOracle(t)
