"""Build per-sequence comparison tables from stored run records.

The headline table compares the 10-bit reference route against the 8-bit
route per sequence: where their rate curves cross, the next ladder QP
past the crossing, and BD deltas for encoding time (per host), encoding
energy (per host with RAPL data), and bitrate. This module turns records
into curves, each row's numbers into a ``SequenceRow``, and the rows into
text and CSV; ``curves`` does the calculus. Hosts appear as column
suffixes, so one table can mix measurements from several machines as long
as every machine saw byte-identical bitstreams.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .curves import Curve, OperatingPoint, bd_delta, ceil_qp, find_intersections
from .errors import ValidationError
from .store import ResultStore, RunRecord

BASELINE_VARIANT = "10-10"
CONTENDER_VARIANT = "8-8"
# Further routes whose BD-rate against the baseline gets a column when the
# store holds them.
EXTRA_RATE_VARIANTS = ("8-10",)
QUALITY_AXES = ("psnr_yuv", "external")
# Cost axis of each curve kind: the RunRecord field it reads.
_COST_FIELDS = {"bitrate": "bitrate_kbps", "time": "cpu_time", "energy": "energy_joules"}


class ReportError(ValidationError):
    """Store content cannot be turned into a consistent table."""


def _quality_value(record: RunRecord, axis: str) -> float:
    if axis == "psnr_yuv":
        return record.quality.psnr_yuv
    if record.quality.external_score is None:
        raise ReportError(
            f"{record.sequence}/{record.variant}/qp{record.qp}: no external score stored"
        )
    return record.quality.external_score


def collect(store: ResultStore) -> dict[str, dict[str, dict[str, list[RunRecord]]]]:
    """Group records as sequence -> variant -> host -> records (QP ascending),
    in the one pass that checks a store is reportable: each (sequence,
    variant, host, QP) cell has one record, a cell's bitstream digest agrees
    across hosts, and every variant and host of a sequence covers the same QPs."""
    cells: dict[tuple[str, str, str, int], RunRecord] = {}
    digests: dict[tuple[str, str, int], str] = {}
    ladders: dict[str, set[int]] = {}
    for record in store.records.values():
        sequence, variant, host, qp = cell = record.sequence, record.variant, record.host, record.qp
        first = cells.setdefault(cell, record)
        if first is not record:
            keys = " and ".join(sorted(r.cache_key[:12] for r in (first, record)))
            raise ReportError(
                f"{sequence}/{variant}/qp{qp} on host {host}: two records, keys {keys}; "
                f"a run with --fresh-measurements on host {host} replaces both"
            )
        if digests.setdefault((sequence, variant, qp), record.bitstream_sha256) != record.bitstream_sha256:
            raise ReportError(f"{sequence}/{variant}/qp{qp}: bitstream digests disagree across hosts")
        ladders.setdefault(sequence, set()).add(qp)
    grouped: dict[str, dict[str, dict[str, list[RunRecord]]]] = {}
    for (sequence, variant, host, _), record in sorted(cells.items()):
        grouped.setdefault(sequence, {}).setdefault(variant, {}).setdefault(host, []).append(record)
    for sequence, variants in grouped.items():
        for variant, hosts in variants.items():
            for host, records in hosts.items():
                missing = sorted(ladders[sequence].difference(r.qp for r in records))
                if missing:
                    raise ReportError(
                        f"incomplete ladder for {sequence}/{variant} on host {host}: missing QP {missing}"
                    )
    return grouped


def _curve(records: list[RunRecord], axis: str, cost_kind: str) -> Curve:
    """One variant's ladder on one host, as quality against ``cost_kind``.

    Time and energy are measurements, not rate-control outputs, so only the
    bitrate curve is forced to grow monotonically along the ladder.
    """
    cost_field = _COST_FIELDS[cost_kind]
    points = [
        OperatingPoint(r.qp, _quality_value(r, axis), getattr(r, cost_field)) for r in records
    ]
    return Curve.from_points(points, monotone_cost=cost_kind == "bitrate")


@dataclass(frozen=True)
class SequenceRow:
    """One per-sequence report row: rate-curve crossing plus BD columns.

    ``bdt_percent`` and ``bdee_percent`` map a platform label to the
    time/energy delta; ``bd_rate_percent`` maps a contender variant name to
    its rate delta against the reference variant.
    """

    sequence: str
    intersection_quality: float | None
    ceil_qp: int | None
    bdt_percent: dict[str, float] = field(default_factory=dict)
    bdee_percent: dict[str, float] = field(default_factory=dict)
    bd_rate_percent: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ReportTable:
    quality_axis: str
    baseline: str
    contender: str
    rows: tuple[SequenceRow, ...]
    time_hosts: tuple[str, ...]
    energy_hosts: tuple[str, ...]
    rate_variants: tuple[str, ...]

    def averages(self) -> SequenceRow:
        """Mean of every BD column that every row has; a column some row
        lacks (a host that ran only some sequences) stays blank, as do the
        crossing quality and QP, so no average covers fewer sequences than
        its neighbours."""

        def mean_over(key_of) -> dict[str, float]:
            columns = [key_of(row) for row in self.rows]
            shared = set(columns[0]).intersection(*columns[1:])
            return {k: sum(c[k] for c in columns) / len(columns) for k in shared}

        return SequenceRow(
            sequence="Average",
            intersection_quality=None,
            ceil_qp=None,
            bdt_percent=mean_over(lambda r: r.bdt_percent),
            bdee_percent=mean_over(lambda r: r.bdee_percent),
            bd_rate_percent=mean_over(lambda r: r.bd_rate_percent),
        )


def build_table(
    store: ResultStore,
    baseline: str = BASELINE_VARIANT,
    contender: str = CONTENDER_VARIANT,
    quality_axis: str = "psnr_yuv",
) -> ReportTable:
    """Assemble the per-sequence comparison table from a (merged) store.

    The baseline/contender rate pair gives the crossing, ``ceil(QP)`` and
    the contender's BD-rate; each host both variants ran on gives a BDT
    column, and an energy column too when all its records carry positive energy.
    """
    if quality_axis not in QUALITY_AXES:
        raise ReportError(f"unknown quality axis {quality_axis!r}")
    grouped = collect(store)
    if not grouped:
        raise ReportError("result store is empty")

    rows = []
    for sequence in sorted(grouped):
        variants = grouped[sequence]
        for needed in (baseline, contender):
            if needed not in variants:
                raise ReportError(f"sequence {sequence}: no records for variant {needed}")

        # Rate and quality are host-independent (collect checked the digests),
        # so each rate curve comes from whichever host sorts first.
        extras = [v for v in EXTRA_RATE_VARIANTS if v in variants and v not in (baseline, contender)]
        reference, *rates = (
            _curve(variants[v][min(variants[v])], quality_axis, "bitrate")
            for v in (baseline, contender, *extras)
        )
        crossings = find_intersections(reference, rates[0])
        bd_rates = {v: bd_delta(reference, c) for v, c in zip((contender, *extras), rates)}

        bdt, bdee = {}, {}
        for host in sorted(set(variants[baseline]) & set(variants[contender])):
            ref, con = variants[baseline][host], variants[contender][host]
            bdt[host] = bd_delta(_curve(ref, quality_axis, "time"), _curve(con, quality_axis, "time"))
            if all(r.energy_joules is not None and r.energy_joules > 0 for r in ref + con):
                bdee[host] = bd_delta(
                    _curve(ref, quality_axis, "energy"), _curve(con, quality_axis, "energy")
                )

        rows.append(SequenceRow(
            sequence=sequence,
            intersection_quality=crossings[-1] if crossings else None,
            ceil_qp=ceil_qp(crossings, reference),
            bdt_percent=bdt,
            bdee_percent=bdee,
            bd_rate_percent=bd_rates,
        ))

    extra_variants = set().union(*(row.bd_rate_percent for row in rows)) - {contender}
    return ReportTable(
        quality_axis=quality_axis,
        baseline=baseline,
        contender=contender,
        rows=tuple(rows),
        time_hosts=tuple(sorted(set().union(*(row.bdt_percent for row in rows)))),
        energy_hosts=tuple(sorted(set().union(*(row.bdee_percent for row in rows)))),
        rate_variants=(contender, *sorted(extra_variants)),
    )


def has_external_scores(store: ResultStore) -> bool:
    records = list(store.records.values())
    return bool(records) and all(r.quality.external_score is not None for r in records)


def _columns(table: ReportTable) -> list[tuple[str, object]]:
    """Column headers plus per-row accessors, in print order."""
    axis_label = "PSNR (dB)" if table.quality_axis == "psnr_yuv" else "Score"
    cols: list[tuple[str, object]] = [
        ("Sequence", lambda r: r.sequence),
        (axis_label, lambda r: "" if r.intersection_quality is None else f"{r.intersection_quality:.2f}"),
        ("ceil(QP)", lambda r: "" if r.ceil_qp is None else str(r.ceil_qp)),
    ]

    def pct(mapping_of, key):
        def fmt(row):
            value = mapping_of(row).get(key)
            return "" if value is None else f"{value:+.1f}%"

        return fmt

    for host in table.time_hosts:
        cols.append((f"BDT[{host}]", pct(lambda r: r.bdt_percent, host)))
    for host in table.energy_hosts:
        cols.append((f"BDEE[{host}]", pct(lambda r: r.bdee_percent, host)))
    for variant in table.rate_variants:
        cols.append((f"BD-Rate[{variant}]", pct(lambda r: r.bd_rate_percent, variant)))
    return cols


def _cells(table: ReportTable) -> list[list[str]]:
    """The header, then one line of cell text per row, the average row last."""
    cols = _columns(table)
    return [[header for header, _ in cols]] + [
        [cell(row) for _, cell in cols] for row in (*table.rows, table.averages())
    ]


def render_text(table: ReportTable) -> str:
    """Fixed-width text rendering with a closing average row."""
    header, *body = _cells(table)
    widths = [max(map(len, column)) for column in zip(header, *body)]

    def line(cells: list[str]) -> str:
        # The sequence name is left-aligned, the numbers right-aligned.
        text = "  ".join(c.rjust(w) if i else c.ljust(w) for i, (c, w) in enumerate(zip(cells, widths)))
        return text.rstrip() + "\n"

    rule = "  ".join("-" * w for w in widths) + "\n"
    out = io.StringIO()
    out.write(
        f"Reference {table.baseline} vs {table.contender}"
        f" (quality axis: {table.quality_axis})\n"
    )
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    out.write(rule)
    out.writelines(line(cells) for cells in body[:-1])
    out.write(rule)
    out.write(line(body[-1]))
    return out.getvalue()


def write_csv(table: ReportTable, path) -> None:
    """CSV twin of the text table, same columns and rows."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_cells(table))
