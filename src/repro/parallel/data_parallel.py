"""Data-parallel training simulation (the paper's introduction motivation).

The paper's case for micro-batching starts from distributed data-parallel
training: large global batches improve accelerator utilization and hide the
gradient all-reduce inside backprop, so the *per-GPU* batch should stay
large -- which drives GPU memory to capacity and leaves little room for
convolution workspaces.  This module closes that loop quantitatively:

* a ring all-reduce cost model (the standard 2(p-1)/p bandwidth term plus
  per-step latency) for the gradient exchange;
* :func:`simulate_iteration` -- one data-parallel training step: every GPU
  runs the network at ``global_batch / p`` and the gradients are all-reduced,
  with the all-reduce overlapped against the backward pass (communication
  hidden up to the backward's duration, as in production frameworks);
* weak/strong-scaling sweeps that the data-parallel example and tests use
  to show where mu-cuDNN's workspace frugality pays: at capacity, the
  workspace budget is what is left after activations and parameters, and
  mu-cuDNN turns that leftover into FFT/Winograd speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frameworks.timing import TimingReport

#: Interconnect profiles: bytes/s per link and per-step latency.  NVLink
#: numbers approximate the paper's DGX-1/TSUBAME-3 nodes; PCIe a commodity
#: box; IB a multi-node ring.
INTERCONNECTS = {
    "nvlink": (20e9, 5e-6),
    "pcie": (10e9, 10e-6),
    "ib-edr": (9e9, 2e-6),
}


def ring_allreduce_time(message_bytes: int, num_gpus: int,
                        interconnect: str = "nvlink") -> float:
    """Ring all-reduce duration for one message of ``message_bytes``.

    The classic model: ``2 (p-1)`` steps, each moving ``message/p`` bytes
    per link, plus per-step latency.  For ``p == 1`` there is nothing to do.
    """
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    if num_gpus == 1:
        return 0.0
    try:
        bandwidth, latency = INTERCONNECTS[interconnect]
    except KeyError:
        raise ValueError(
            f"unknown interconnect {interconnect!r}; "
            f"available: {sorted(INTERCONNECTS)}"
        ) from None
    steps = 2 * (num_gpus - 1)
    return steps * (latency + (message_bytes / num_gpus) / bandwidth)


@dataclass
class DataParallelIteration:
    """Cost breakdown of one simulated data-parallel training step."""

    num_gpus: int
    per_gpu_batch: int
    compute_time: float       # fwd+bwd on one GPU (all GPUs are in lockstep)
    backward_time: float      # the window available for overlap
    allreduce_time: float     # raw communication cost of the gradient sum
    exposed_comm_time: float  # all-reduce time NOT hidden behind backward

    @property
    def iteration_time(self) -> float:
        return self.compute_time + self.exposed_comm_time

    @property
    def samples_per_second(self) -> float:
        return self.num_gpus * self.per_gpu_batch / self.iteration_time

    @property
    def comm_hidden_fraction(self) -> float:
        if self.allreduce_time == 0.0:
            return 1.0
        return 1.0 - self.exposed_comm_time / self.allreduce_time


def simulate_iteration(
    report: TimingReport,
    param_bytes: int,
    num_gpus: int,
    per_gpu_batch: int,
    interconnect: str = "nvlink",
) -> DataParallelIteration:
    """Combine a single-GPU timing report with the all-reduce model.

    ``report`` must be a :func:`repro.frameworks.timing.time_net` result for
    the network at ``per_gpu_batch``; gradients (= parameters) are
    all-reduced once per iteration, overlapped with the backward pass
    (bucketed all-reduce streams gradients as layers finish, so only the
    excess over the backward window is exposed).
    """
    allreduce = ring_allreduce_time(param_bytes, num_gpus, interconnect)
    exposed = max(0.0, allreduce - report.backward_total)
    return DataParallelIteration(
        num_gpus=num_gpus,
        per_gpu_batch=per_gpu_batch,
        compute_time=report.total,
        backward_time=report.backward_total,
        allreduce_time=allreduce,
        exposed_comm_time=exposed,
    )
