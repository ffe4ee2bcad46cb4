"""Simulated wire: frame records, symbol metering, and the cost ledger.

Every message is logged once, with its symbol count.  :data:`KINDS` is the
one place that says what a message costs: its kind alone fixes its phase,
its direction and whether it is metered.  Costs follow the normalized
definitions: reading cost counts symbols downloaded in the read phase,
writing cost counts symbols uploaded in the write phase, both divided by
the (unpadded) submodel length.  The random scheme's one-time write
queries are logged but unmetered, mirroring how the closed forms amortize
them away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

READ_Q = "READ_Q"
READ_A = "READ_A"
WRITE_U = "WRITE_U"
SPARSE_POS = "SPARSE_POS"
DOWNLINK_SET = "DOWNLINK_SET"
PERM_SETUP = "PERM_SETUP"
WRITE_QGEN = "WRITE_QGEN"

# kind -> (phase, direction, metered)
KINDS = {
    READ_Q: ("read", "up", True),
    READ_A: ("read", "down", True),
    PERM_SETUP: ("read", "down", True),
    DOWNLINK_SET: ("read", "down", True),
    WRITE_U: ("write", "up", True),
    SPARSE_POS: ("write", "up", True),
    WRITE_QGEN: ("write", "up", False),
}


@dataclass(frozen=True)
class Frame:
    tick: int
    session: int     # iteration index within the run
    kind: str
    phase: str
    direction: str
    db: int          # 0 denotes the coordinator
    symbols: int
    metered: bool

    def line(self) -> str:
        return (
            f"{self.tick:06d} {self.kind} sess={self.session} phase={self.phase} "
            f"dir={self.direction} db={self.db} sym={self.symbols} metered={int(self.metered)}"
        )


class FrameLog:
    def __init__(self):
        self.frames: list[Frame] = []

    def record(self, session, kind, db, symbols) -> Frame:
        phase, direction, metered = KINDS[kind]
        frame = Frame(len(self.frames), session, kind, phase, direction, db, symbols, metered)
        self.frames.append(frame)
        return frame

    def trace(self) -> str:
        return "\n".join(f.line() for f in self.frames) + ("\n" if self.frames else "")


def _total(phase, direction, metered=True) -> property:
    return property(lambda self: self.totals.get((phase, direction, metered), 0))


@dataclass
class CostLedger:
    """Symbol totals keyed by (phase, direction, metered), with the
    normalized cost views."""

    normalizer: int
    totals: dict = field(default_factory=dict)

    def add(self, frame: Frame) -> None:
        key = (frame.phase, frame.direction, frame.metered)
        self.totals[key] = self.totals.get(key, 0) + frame.symbols

    read_down = _total("read", "down")
    read_up = _total("read", "up")
    write_down = _total("write", "down")
    write_up = _total("write", "up")
    write_up_unmetered = _total("write", "up", metered=False)

    @property
    def c_read(self) -> Fraction:
        return Fraction(self.read_down, self.normalizer)

    @property
    def c_write(self) -> Fraction:
        return Fraction(self.write_up, self.normalizer)

    @property
    def c_total(self) -> Fraction:
        return self.c_read + self.c_write

    def as_dict(self) -> dict:
        return {
            "normalizer": self.normalizer,
            "read_down": self.read_down,
            "read_up": self.read_up,
            "write_down": self.write_down,
            "write_up": self.write_up,
            "write_up_unmetered": self.write_up_unmetered,
            "c_read": str(self.c_read),
            "c_write": str(self.c_write),
            "c_total": str(self.c_total),
        }
