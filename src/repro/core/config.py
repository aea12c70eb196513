"""Configuration types of the mu-cuDNN optimizer (paper section III-A).

A *micro-configuration* is a pair of a convolution algorithm and a
micro-batch size (plus the modeled time and workspace the benchmarking step
attached to it).  A *configuration* of a segmented convolution kernel is "a
list of micro-configurations" whose micro-batch sizes sum to the kernel's
mini-batch size; e.g. a kernel with mini-batch 256 divided into four
micro-batches of 64 running algorithm ``a`` is ``[(64, a)] * 4``.

Aggregate semantics (used by both WR and WD):

* execution **time** is the *sum* over micro-configurations -- micro-batches
  run sequentially;
* **workspace** is the *max* over micro-configurations -- micro-batches of
  one kernel reuse a single workspace slot.

The ``+`` operator implements the paper's list-concatenation ``⊕``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cudnn.enums import ALGOS_FOR, Algo, ConvType
from repro.errors import CacheError, read_container, read_int, read_number, read_str


@dataclass(frozen=True)
class MicroConfig:
    """One micro-batch: (micro-batch size, algorithm, modeled time/workspace)."""

    micro_batch: int
    algo: Algo
    time: float
    workspace: int

    def __post_init__(self):
        if self.micro_batch <= 0:
            raise ValueError(f"micro_batch must be positive, got {self.micro_batch}")
        if self.time < 0 or not math.isfinite(self.time):
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        if self.workspace < 0:
            raise ValueError(f"workspace must be >= 0, got {self.workspace}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.micro_batch}, {self.algo.name})"


@dataclass(frozen=True)
class Configuration:
    """An ordered list of micro-configurations for one kernel."""

    micros: tuple[MicroConfig, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "micros", tuple(self.micros))

    # -- aggregates -----------------------------------------------------------

    @property
    def batch(self) -> int:
        """Total mini-batch covered by this configuration."""
        return sum(m.micro_batch for m in self.micros)

    @property
    def time(self) -> float:
        """Sequential execution time of all micro-batches."""
        return sum(m.time for m in self.micros)

    @property
    def workspace(self) -> int:
        """Resident workspace: micro-batches share one slot, so the max."""
        return max((m.workspace for m in self.micros), default=0)

    @property
    def num_micro_batches(self) -> int:
        return len(self.micros)

    @property
    def is_undivided(self) -> bool:
        return len(self.micros) == 1

    def micro_batch_sizes(self) -> tuple[int, ...]:
        return tuple(m.micro_batch for m in self.micros)

    def algorithms(self) -> tuple[Algo, ...]:
        return tuple(m.algo for m in self.micros)

    # -- the paper's ⊕ operator ----------------------------------------------

    def __add__(self, other: "Configuration | MicroConfig") -> "Configuration":
        if isinstance(other, MicroConfig):
            return Configuration(self.micros + (other,))
        if isinstance(other, Configuration):
            return Configuration(self.micros + other.micros)
        return NotImplemented

    def __iter__(self):
        return iter(self.micros)

    def __len__(self) -> int:
        return len(self.micros)

    def dominates(self, other: "Configuration") -> bool:
        """Weak Pareto dominance in (time, workspace) space."""
        return (
            self.time <= other.time
            and self.workspace <= other.workspace
            and (self.time < other.time or self.workspace < other.workspace)
        )

    def canonical(self) -> tuple:
        """Order-insensitive identity (micro-batches commute semantically
        for time/workspace purposes)."""
        return tuple(sorted((m.micro_batch, int(m.algo)) for m in self.micros))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "[" + ", ".join(str(m) for m in self.micros) + "]"

    # -- (de)serialization for the file-based configuration cache -------------

    def to_dict(self, conv_type: ConvType) -> dict:
        return {
            "conv_type": conv_type.value,
            "micros": [
                {
                    "micro_batch": m.micro_batch,
                    "algo": int(m.algo),
                    "time": m.time,
                    "workspace": m.workspace,
                }
                for m in self.micros
            ],
        }

    @classmethod
    def from_dict(cls, data: object, error: type[Exception] = CacheError,
                  where: str = "configuration") -> "Configuration":
        """Decode :meth:`to_dict` output, or raise ``error`` naming ``where``.

        The one decoder of stored plans (snapshots, the benchmark DB, wire
        responses); it reads every field with the :mod:`repro.errors` readers.
        """
        data = read_container(data, dict, error, where, "the configuration")
        conv_type = read_str(data.get("conv_type"), error, where, "'conv_type'")
        algos = _ALGO_CODES.get(conv_type)
        if algos is None:
            raise error(f"{where}: unknown 'conv_type' {conv_type!r}")
        micros: list[MicroConfig] = []
        for m in read_container(data.get("micros"), list, error, where, "'micros'"):
            m = read_container(m, dict, error, where, "a 'micros' entry")
            algo = algos.get(read_int(m.get("algo"), error, where, "'algo'"))
            if algo is None:
                raise error(f"{where}: unknown {conv_type} 'algo' {m['algo']}")
            micros.append(MicroConfig(
                read_int(m.get("micro_batch"), error, where, "'micro_batch'", 1), algo,
                read_number(m.get("time"), error, where, "'time'", 0),
                read_int(m.get("workspace"), error, where, "'workspace'", 0)))
        return cls(tuple(micros))


#: ``conv_type`` value -> algorithm code -> algorithm, for :meth:`from_dict`.
_ALGO_CODES: dict[str, dict[int, Algo]] = {
    conv_type.value: {int(algo): algo for algo in algos}
    for conv_type, algos in ALGOS_FOR.items()
}

#: The empty configuration (identity of ``⊕``); time 0, workspace 0.
EMPTY = Configuration(())
