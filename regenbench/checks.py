"""Output checks: properties every regenerated result must have.

Each check compares a result against an independent computation or a
property of the model (a bandwidth cap, a monotone trend, a
window/RTT bound), never against a stored copy of earlier output.
:func:`problems` returns what is wrong with one
:class:`~repro.core.registry.ExperimentResult`; an empty list means it
passed.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Sequence

#: 4x SDR data rate in MB/s (bytes/us): 10 Gb/s of signal, 8b/10b
#: encoded, 8 bits a byte.  The Longbow WAN port runs at SDR.
SDR_4X_MBPS = 10e9 * (8 / 10) / 8 / 1e6

#: Relative slack for float noise in values that must not grow or must
#: be equal (seen: 856.1872909699002 vs 856.1872909698874 across a row
#: of delay-independent UD bandwidths).
REL_TOL = 1e-9

#: a column of values at one WAN delay: ``100us`` or ``100us (MB/s)``
_DELAY_COL = re.compile(r"\A(\d+)us( \(MB/s\))?\Z")


class CheckFailed(AssertionError):
    """A result broke a property it must have."""


def _delay_columns(result) -> List[int]:
    return [i for i, c in enumerate(result.columns) if _DELAY_COL.match(c)]


def _delay_of(column: str) -> float:
    return float(_DELAY_COL.match(column).group(1))


def _column(result, name: str) -> int:
    try:
        return result.columns.index(name)
    except ValueError:
        raise CheckFailed(f"{result.exp_id}: no column {name!r}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _capped(limit: float, columns: Callable) -> Callable:
    def check(result) -> None:
        for row in result.rows:
            for i in columns(result):
                _require(row[i] <= limit,
                         f"{result.exp_id}: {result.columns[i]}={row[i]} "
                         f"exceeds the {limit:g} MB/s link data rate "
                         f"(row {row[0]})")
    return check


def _named(*names: str) -> Callable:
    return lambda result: [_column(result, n) for n in names]


def _cap(columns: Callable = _delay_columns) -> Callable:
    """Unidirectional bandwidth at most the SDR 4x data rate."""
    return _capped(SDR_4X_MBPS, columns)


def _bidir_cap(columns: Callable = _delay_columns) -> Callable:
    """Bidirectional bandwidth at most twice the SDR 4x data rate."""
    return _capped(2 * SDR_4X_MBPS, columns)


def table1_five_us_per_km(result) -> None:
    for distance, delay in result.rows:
        km = float(distance.split()[0])
        us = float(delay.split()[0])
        _require(us == 5.0 * km,
                 f"table1: {distance} maps to {delay}, not {5.0 * km:g} us")


def flat_in_delay(result) -> None:
    """UD has no ACKs, so its bandwidth must not depend on delay."""
    cols = _delay_columns(result)
    for row in result.rows:
        first = row[cols[0]]
        for i in cols[1:]:
            _require(abs(row[i] - first) <= REL_TOL * abs(first),
                     f"{result.exp_id}: size {row[0]} reads {row[i]} at "
                     f"{result.columns[i]} but {first} at "
                     f"{result.columns[cols[0]]}")


def nonincreasing_in_delay(result) -> None:
    """More delay can only slow a windowed transfer down."""
    cols = _delay_columns(result)
    for row in result.rows:
        for a, b in zip(cols, cols[1:]):
            _require(row[b] <= row[a] * (1 + REL_TOL),
                     f"{result.exp_id}: row {row[0]} rises from "
                     f"{row[a]} at {result.columns[a]} to {row[b]} at "
                     f"{result.columns[b]}")


def within_window_per_rtt(result) -> None:
    """A TCP stream moves at most one window per round trip."""
    from repro.calibration import DEFAULT_PROFILE, KB
    for row in result.rows:
        label = row[0]
        window = (DEFAULT_PROFILE.tcp_default_window if label == "default"
                  else int(label.rstrip("K")) * KB)
        for i in _delay_columns(result):
            delay = _delay_of(result.columns[i])
            if delay > 0:
                bound = window / (2 * delay)
                _require(row[i] <= bound,
                         f"{result.exp_id}: window {label} moves {row[i]} "
                         f"MB/s at {result.columns[i]}, above window/RTT "
                         f"= {bound}")


def _collective_latency(flat_name: str, hier_name: str) -> Callable:
    """A collective crosses the WAN at least once, and the hierarchical
    algorithm never does worse than the flat one."""
    def check(result) -> None:
        delay = _column(result, "delay")
        flat = _column(result, flat_name)
        hier = _column(result, hier_name)
        for row in result.rows:
            one_way = _delay_of(row[delay])
            _require(row[flat] >= one_way and row[hier] >= one_way,
                     f"{result.exp_id}: row {row} completes in less than "
                     f"the one-way delay")
            _require(row[hier] <= row[flat],
                     f"{result.exp_id}: row {row}: hierarchical "
                     f"{row[hier]} us is slower than flat {row[flat]} us")
    return check


def nas_slowdown(result) -> None:
    """Delay never speeds a NAS kernel up, and CG suffers most."""
    cols = _delay_columns(result)
    for row in result.rows:
        for i in cols:
            _require(row[i] >= 1 - REL_TOL,
                     f"fig12: {row[0]} runs {row[i]:.6f}x its 0-delay time "
                     f"at {result.columns[i]}")
    last = cols[-1]
    by_name = {row[0]: row[last] for row in result.rows}
    for other in ("IS", "FT"):
        _require(by_name["CG"] > by_name[other],
                 f"fig12: at {result.columns[last]} CG ({by_name['CG']}) "
                 f"does not exceed {other} ({by_name[other]})")


def ipoib_rc_beats_rdma(result) -> None:
    rdma = _column(result, "RDMA")
    rc = _column(result, "IPoIB-RC")
    for row in result.rows:
        _require(row[rc] > row[rdma],
                 f"{result.exp_id}: {row[0]} streams IPoIB-RC {row[rc]} "
                 f"does not beat RDMA {row[rdma]}")


CHECKS: Dict[str, Sequence[Callable]] = {
    "table1": (table1_five_us_per_km,),
    "fig04a": (_cap(), flat_in_delay),
    "fig04b": (_bidir_cap(),),
    "fig05a": (_cap(), nonincreasing_in_delay),
    "fig05b": (_bidir_cap(),),
    "fig06a": (_cap(), within_window_per_rtt),
    "fig07a": (_cap(),),
    "fig07b": (_cap(),),
    "fig08a": (_cap(), nonincreasing_in_delay),
    "fig08b": (_bidir_cap(),),
    "fig09a": (_cap(_named("thresh-8K", "thresh-64K")),),
    "fig09b": (_bidir_cap(_named("thresh-8K", "thresh-64K")),),
    "fig11": (_collective_latency("original_us", "hierarchical_us"),),
    "fig12": (nas_slowdown,),
    "fig13c": (ipoib_rc_beats_rdma,),
    "opt_adaptive": (_cap(_named("default MB/s", "adaptive MB/s")),),
    "abl_rc_window": (_cap(),),
    "abl_credits": (_cap(_named("256K bw @1ms (MB/s)")),),
    "ext_hier_allreduce": (_collective_latency("flat_us",
                                               "hierarchical_us"),),
    "ext_readahead": (_cap(), nonincreasing_in_delay),
}


def problems(result) -> List[str]:
    """What is wrong with ``result``; empty when every check passes."""
    found = []
    for check in CHECKS.get(result.exp_id, ()):
        try:
            check(result)
        except (CheckFailed, KeyError, IndexError, TypeError,
                ValueError) as exc:
            found.append(str(exc) or f"{result.exp_id}: {exc!r}")
    return found


def differing(expected: Iterable, actual: Iterable) -> List[str]:
    """Ids whose canonical JSON differs between two result lists."""
    want = {r.exp_id: r.to_json() for r in expected}
    got = {r.exp_id: r.to_json() for r in actual}
    return [exp_id for exp_id in want if got.get(exp_id) != want[exp_id]]
