"""The output check: a seeded sample of delivered records, byte for byte
against :class:`repro.fleet.SerialExecutor`, the reference path of the
repository's bit-identity suites."""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: what a stratum is keyed by: (scenario, scenario seed, served from
#: cache).  The workloads never override build-layer fields, so the
#: first two name the build-key group.
Stratum = tuple[str, int, bool]


def record_bytes(record: Any) -> bytes:
    """The canonical bytes of one :class:`~repro.fleet.RunRecord`."""
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass(frozen=True)
class Kept:
    """One delivered record held back for the check."""

    fleet: int          #: index of the fleet in the workload
    position: int       #: index of the run in the fleet's expansion
    stratum: Stratum
    record: Any


class Sampler:
    """Keeps, per fleet, one random record of every stratum plus one
    more, so the final sample can cover every build-key group without
    holding every record in memory."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.kept: list[Kept] = []

    def offer(self, fleet: int, records: Sequence[Any],
              cached: Sequence[bool]) -> None:
        if not records:
            return
        by_stratum: dict[Stratum, list[int]] = defaultdict(list)
        for position, (record, hit) in enumerate(zip(records, cached)):
            by_stratum[(record.scenario, record.seed, bool(hit))].append(
                position)
        chosen = {self.rng.choice(positions)
                  for _, positions in sorted(by_stratum.items())}
        chosen.add(self.rng.randrange(len(records)))
        for position in sorted(chosen):
            record = records[position]
            self.kept.append(Kept(
                fleet, position,
                (record.scenario, record.seed, bool(cached[position])),
                record))

    def sample(self, extra: int) -> list[Kept]:
        """One kept record per stratum seen, plus ``extra`` more."""
        by_stratum: dict[Stratum, list[Kept]] = defaultdict(list)
        for item in self.kept:
            by_stratum[item.stratum].append(item)
        picked = [self.rng.choice(items)
                  for _, items in sorted(by_stratum.items())]
        taken = {id(item) for item in picked}
        rest = [item for item in self.kept if id(item) not in taken]
        picked += self.rng.sample(rest, min(extra, len(rest)))
        return sorted(picked, key=lambda item: (item.fleet, item.position))


def serial_records(runs: Sequence[Any]) -> list[Any]:
    from repro.fleet import SerialExecutor

    with SerialExecutor() as executor:
        return [outcome.record for outcome in executor.map(runs)]


def mismatches(runs: Sequence[Any], delivered: Sequence[Any],
               reference: Callable[[Sequence[Any]], list[Any]]
               = serial_records) -> list[str]:
    """Run ids whose delivered record differs from the reference's."""
    expected = reference(runs)
    return [run.run_id for run, got, want
            in zip(runs, delivered, expected)
            if record_bytes(got) != record_bytes(want)]
