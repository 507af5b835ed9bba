"""The engine's options and the ordering verdicts on a shift sequence.

This is the part of the engine's interface that needs no numpy: the
command line builds its configs from ``IterateOptions``, and its
``certify`` verb checks a trace file's shift column with
``certify_shift_sequence``, so a cold ``certify`` process loads this
module and the standard library only. :mod:`wellsolver.hierarchy`
re-exports every public name here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

__all__ = ["IterateOptions", "PairVerdict", "certify_shift_sequence"]

Case = Literal["A", "B"]


@dataclass(frozen=True)
class IterateOptions:
    """Engine knobs. ``tol_e`` is relative to the trial's E0."""

    max_iter: int = 64
    tol_e: float = 1e-10
    tol_f: float = 1e-9


@dataclass(frozen=True)
class PairVerdict:
    """One ordering check between two iterates."""

    kind: str
    pair: tuple[int, int]
    margin: float
    ok: bool


def _floor(*values: float) -> float:
    """Relative roundoff floor (1e-13) below which a negative margin is a tie."""
    scale = max((abs(v) for v in values), default=0.0)
    return 1e-13 * max(scale, 1e-300)


def certify_shift_sequence(
    shifts: Sequence[float], case: Case
) -> tuple[tuple[PairVerdict, ...], tuple[PairVerdict, ...]]:
    """Ordering verdicts for a shift sequence alone (no f samples needed).

    ``shifts`` excludes the n=0 seed. Returns (adjacent-or-chain verdicts,
    cross verdicts); the latter is empty for Case A.
    """
    n = len(shifts)
    energy: list[PairVerdict] = []
    cross: list[PairVerdict] = []
    if case == "A":
        for i in range(n - 1):
            margin = shifts[i + 1] - shifts[i]
            fl = _floor(shifts[i], shifts[i + 1])
            energy.append(
                PairVerdict("shift_ascending", (i + 1, i + 2), margin, margin > -fl)
            )
        return tuple(energy), ()
    # Case B: indices are 1-based in the physics convention.
    odd = [(i + 1, s) for i, s in enumerate(shifts) if (i + 1) % 2 == 1]
    even = [(i + 1, s) for i, s in enumerate(shifts) if (i + 1) % 2 == 0]
    for (na, sa), (nb, sb) in zip(odd, odd[1:]):
        margin = sb - sa
        energy.append(
            PairVerdict("odd_ascending", (na, nb), margin, margin > -_floor(sa, sb))
        )
    for (na, sa), (nb, sb) in zip(even, even[1:]):
        margin = sa - sb
        energy.append(
            PairVerdict("even_descending", (na, nb), margin, margin > -_floor(sa, sb))
        )
    for ne, se in even:
        for no, so in odd:
            margin = se - so
            cross.append(
                PairVerdict(
                    "even_above_odd", (ne, no), margin, margin > -_floor(se, so)
                )
            )
    return tuple(energy), tuple(cross)
