"""Shared configuration objects for the AdaPipe reproduction.

Two configuration records appear everywhere in the system:

* :class:`ParallelConfig` — the 3D parallelism strategy ``(t, p, d)`` of
  Table 1 in the paper (tensor, pipeline, and data parallel sizes).
* :class:`TrainingConfig` — the workload: sequence length, global batch
  size, micro-batch size, and precision-related knobs.

Both are immutable value objects so they can be used as cache keys by the
search engine and the isomorphism cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Type


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


def require_non_negative(
    name: str,
    value: float,
    allow_inf: bool = False,
    error: Type[ValueError] = ValueError,
) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a number >= 0.

    NaN and negative values always fail; ``inf`` fails unless
    ``allow_inf`` (infeasible stage evaluations carry an infinite backward
    time). This is the one range check for measured or decoded times and
    byte counts, so a bad number stops where it enters.
    """
    if value >= 0 and (allow_inf or value != math.inf):  # NaN fails ``>= 0``
        return
    want = "a non-negative number" if allow_inf else "a finite non-negative number"
    raise error(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class ParallelConfig:
    """A 3D parallelism strategy.

    Attributes:
        tensor_parallel: tensor parallel size ``t`` (intra-node model split).
        pipeline_parallel: pipeline parallel size ``p`` (number of stages).
        data_parallel: data parallel size ``d`` (replicas, with ZeRO-1).
    """

    tensor_parallel: int
    pipeline_parallel: int
    data_parallel: int

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "pipeline_parallel", "data_parallel"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")

    @property
    def num_devices(self) -> int:
        """Total number of accelerators the strategy occupies."""
        return self.tensor_parallel * self.pipeline_parallel * self.data_parallel

    def as_tuple(self) -> tuple:
        """The paper's ``(TP, PP, DP)`` tuple, as printed in Table 3."""
        return (self.tensor_parallel, self.pipeline_parallel, self.data_parallel)

    def __str__(self) -> str:
        return f"(t={self.tensor_parallel}, p={self.pipeline_parallel}, d={self.data_parallel})"


@dataclass(frozen=True)
class TrainingConfig:
    """The training workload evaluated in Section 7.

    The paper fixes the micro-batch size to 1 and halves the global batch
    size whenever the sequence length doubles, keeping tokens-per-iteration
    constant; this record just stores the resulting numbers.

    Attributes:
        sequence_length: tokens per sample.
        global_batch_size: samples per iteration across all data-parallel
            replicas.
        micro_batch_size: samples per pipeline micro-batch (``b``).
        bytes_per_value: activation/parameter element width (2 for fp16/bf16).
        optimizer_state_factor: the paper's ``k`` — bytes of optimizer state
            per parameter divided by ``bytes_per_value``... stored directly as
            bytes-per-parameter here (8 for two FP32 Adam moments).
        master_weight_bytes: extra bytes per parameter when the framework
            keeps an FP32 master copy of the weights (4) and/or accumulates
            gradients in FP32 (4); 0 disables the term.
        sequence_parallel: whether Megatron-style sequence parallelism is on
            (it divides layer-norm/dropout activations by ``t``).
        flash_attention: whether FlashAttention is used (it removes the
            attention-probability intermediates).
        zero_stage: ZeRO sharding level across data-parallel ranks: 0 =
            nothing sharded, 1 = optimizer state (the paper's setting), 2 =
            + gradients, 3 = + parameters.
        hidden_dropout: dropout probability on hidden activations; a
            non-zero value adds the 1-byte dropout masks to the memory
            model (GPT-3-era recipes; modern LLM training sets 0).
        attention_dropout: dropout on attention probabilities; only
            materialises a mask without FlashAttention.
    """

    sequence_length: int
    global_batch_size: int
    micro_batch_size: int = 1
    bytes_per_value: int = 2
    optimizer_state_factor: int = 8
    master_weight_bytes: int = 4
    sequence_parallel: bool = True
    flash_attention: bool = True
    zero_stage: int = 1
    hidden_dropout: float = 0.0
    attention_dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.sequence_length < 1:
            raise ConfigError("sequence_length must be >= 1")
        if self.global_batch_size < 1:
            raise ConfigError("global_batch_size must be >= 1")
        if self.micro_batch_size < 1:
            raise ConfigError("micro_batch_size must be >= 1")
        if self.bytes_per_value not in (1, 2, 4):
            raise ConfigError("bytes_per_value must be 1, 2 or 4")
        if self.zero_stage not in (0, 1, 2, 3):
            raise ConfigError("zero_stage must be 0, 1, 2 or 3")
        for name in ("hidden_dropout", "attention_dropout"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")

    def num_micro_batches(self, parallel: ParallelConfig) -> int:
        """Micro-batches ``n`` seen by one pipeline (one data-parallel group)."""
        per_replica = self.global_batch_size // parallel.data_parallel
        if per_replica * parallel.data_parallel != self.global_batch_size:
            raise ConfigError(
                f"global batch {self.global_batch_size} not divisible by "
                f"data parallel size {parallel.data_parallel}"
            )
        n = per_replica // self.micro_batch_size
        if n * self.micro_batch_size != per_replica:
            raise ConfigError(
                f"per-replica batch {per_replica} not divisible by "
                f"micro batch {self.micro_batch_size}"
            )
        if n < 1:
            raise ConfigError("configuration yields zero micro-batches")
        return n

    def tokens_per_iteration(self) -> int:
        """Total tokens processed per iteration (held constant in the paper)."""
        return self.sequence_length * self.global_batch_size

    def with_sequence_length(self, sequence_length: int) -> "TrainingConfig":
        """The paper's sweep rule: double seq length, halve global batch.

        Returns a copy at ``sequence_length`` with the global batch scaled so
        that tokens-per-iteration is unchanged.
        """
        scaled = self.tokens_per_iteration() // sequence_length
        if scaled * sequence_length != self.tokens_per_iteration():
            raise ConfigError(
                f"cannot rescale batch: {self.tokens_per_iteration()} tokens "
                f"not divisible by sequence length {sequence_length}"
            )
        return dataclasses.replace(
            self, sequence_length=sequence_length, global_batch_size=scaled
        )
