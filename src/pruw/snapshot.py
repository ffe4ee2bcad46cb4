"""Length-prefixed binary snapshots of the masked storage.

Layout (all integers little-endian):

    magic "PRUW2" | u8 scheme tag | u64 q | u32 N | u32 f_count | u32 M
    | u64 seed | u32 region count
    then per region (at least one):
      u8 kind | u8 case | 4 x u32 layout fields | u64 unpadded length
      | u32 subpackets | u32 width
      | cells: N * subpackets * width * M  u64 words (row-major)
    then, for the sparse-position scheme:
      u32 P | P x u32 permutation | u64 reversing-noise seed

Each database's cells are written and read as one buffer of u64 words.  A
region count of zero, a region length beyond subpackets * width, a cell
word at or above q or a top-r file whose storage is not top-r fails with
IntegrityError.

The permutation setup serializes as (permutation, noise seed): the noisy
reversing matrices are a pure function of those plus the field constants.
"PRUW1" files predate the per-column noise streams, so their seed would
rebuild other matrices; they are rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import ConfigError, IntegrityError
from .field import FieldParams, allocate_eval_points, kernel_dtype
from .storage import BasicLayout, DatabaseState, RandomLayout, TopRLayout
from .topr import PermutationSetup

MAGIC = b"PRUW2"
OLD_MAGIC = b"PRUW1"
_SCHEME_TAGS = {"basic": 1, "topr": 2, "random": 3}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_TAGS.items()}
_KIND_TAGS = {"basic": 1, "topr": 2, "random": 3}


@dataclass
class SnapshotBundle:
    scheme: str
    fp: FieldParams
    seed: int
    regions: list[list[DatabaseState]]
    perm_setup: PermutationSetup | None = None


def _layout_fields(layout) -> tuple[int, int, int, int, int, int]:
    if isinstance(layout, BasicLayout):
        return _KIND_TAGS["basic"], 0, layout.t_storage, layout.t_query, layout.t_update, layout.ell
    if isinstance(layout, TopRLayout):
        return _KIND_TAGS["topr"], layout.case, layout.ell, 0, 0, 0
    if isinstance(layout, RandomLayout):
        return _KIND_TAGS["random"], layout.case, layout.ell_r, layout.ell_w, layout.n_databases, 0
    raise ConfigError(f"cannot snapshot layout {layout!r}")


def _rebuild_layout(kind, case, a, b, c, d):
    if kind == _KIND_TAGS["basic"]:
        return BasicLayout(t_storage=a, t_query=b, t_update=c, ell=d)
    if kind == _KIND_TAGS["topr"]:
        return TopRLayout(case=case, ell=a)
    if kind == _KIND_TAGS["random"]:
        return RandomLayout(case=case, ell_r=a, ell_w=b, n_databases=c)
    raise IntegrityError(f"unknown layout kind tag {kind}")


def save_snapshot(path: str, bundle: SnapshotBundle) -> None:
    fp = bundle.fp
    if fp.q >= 1 << 64:
        raise ConfigError(f"q={fp.q} does not fit the snapshot's u64 modulus and cell words")
    if not 0 <= bundle.seed < 1 << 64:
        raise ConfigError(f"seed={bundle.seed} does not fit the snapshot's u64 seed word")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", _SCHEME_TAGS[bundle.scheme])
    m_count = bundle.regions[0][0].m_count
    out += struct.pack("<QIII", fp.q, fp.n_databases, len(fp.fs), m_count)
    out += struct.pack("<QI", bundle.seed, len(bundle.regions))
    for states in bundle.regions:
        first = states[0]
        kind, case, a, b, c, d = _layout_fields(first.layout)
        out += struct.pack("<BBIIII", kind, case, a, b, c, d)
        out += struct.pack("<QII", first.length, first.subpackets, first.layout.width)
        for st in states:
            out += st.cells.astype("<u8").tobytes()
    if bundle.perm_setup is not None:
        setup = bundle.perm_setup
        out += struct.pack("<I", setup.p_subpackets)
        out += struct.pack(f"<{setup.p_subpackets}I", *setup.perm)
        out += struct.pack("<Q", setup.noise_seed)
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise IntegrityError("snapshot truncated")
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals


def load_snapshot(path: str) -> SnapshotBundle:
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:5] == OLD_MAGIC:
        raise IntegrityError(
            "snapshot format PRUW1 is no longer read: its reversing-noise seed "
            "rebuilds different matrices under the PRUW2 noise streams; re-save it"
        )
    if data[:5] != MAGIC:
        raise IntegrityError("bad snapshot magic")
    rd = _Reader(data)
    rd.pos = 5
    (scheme_tag,) = rd.take("<B")
    if scheme_tag not in _SCHEME_NAMES:
        raise IntegrityError(f"unknown scheme tag {scheme_tag}")
    q, n_db, f_count, m_count = rd.take("<QIII")
    seed, region_count = rd.take("<QI")
    if region_count == 0:
        raise IntegrityError("snapshot holds no storage regions")
    fp = allocate_eval_points(n_db, f_count, q)
    regions = []
    for _ in range(region_count):
        kind, case, a, b, c, d = rd.take("<BBIIII")
        length, subpackets, width = rd.take("<QII")
        layout = _rebuild_layout(kind, case, a, b, c, d)
        if layout.width != width:
            raise IntegrityError("layout width disagrees with the header")
        if length > subpackets * width:
            raise IntegrityError(
                f"region length {length} exceeds its {subpackets} x {width} cells")
        states = []
        for db in range(1, n_db + 1):
            (raw,) = rd.take(f"{8 * subpackets * width * m_count}s")
            words = np.frombuffer(raw, "<u8")
            if (words >= q).any():
                raise IntegrityError("cell symbol outside the field")
            cells = words.astype(kernel_dtype(q)).reshape(subpackets, width, m_count)
            states.append(
                DatabaseState(db_index=db, fp=fp, layout=layout, m_count=m_count,
                              length=length, cells=cells)
            )
        regions.append(states)
    perm_setup = None
    if scheme_tag == _SCHEME_TAGS["topr"]:
        layout = regions[0][0].layout
        if not isinstance(layout, TopRLayout):
            raise IntegrityError("top-r snapshot holds a non-top-r storage layout")
        (p_subpackets,) = rd.take("<I")
        perm = rd.take(f"<{p_subpackets}I")
        (noise_seed,) = rd.take("<Q")
        perm_setup = PermutationSetup(
            perm=tuple(perm), case=layout.case, ell=layout.ell, fp=fp,
            noise_seed=noise_seed,
        )
    if rd.pos != len(data):
        raise IntegrityError("trailing bytes after snapshot payload")
    return SnapshotBundle(
        scheme=_SCHEME_NAMES[scheme_tag], fp=fp, seed=seed, regions=regions,
        perm_setup=perm_setup,
    )
