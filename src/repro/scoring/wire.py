"""Pickle-free wire format for featurised examples and predictions.

The process-based scoring backend featurises in the *submitting* worker and
ships only numeric payloads to the scorer processes — never queries, plans,
networks or any other rich object graph.  Payloads use a raw fixed-layout
binary format (a magic tag, a little-endian header of counts/dimensions,
then the flat float64/int64 buffers): no pickling on either side, and
decoding is a handful of ``np.frombuffer`` views rather than an archive
parse — this sits on the per-frontier hot path of every beam search.

Layout of one example batch (``pack_examples``), after the 4-byte magic and
the ``<4q`` header ``(n, query_dim, node_dim, total_slots)``:

- ``queries``   — ``(n, query_dim)`` float64 query encodings;
- ``features``  — the per-example node tables, concatenated along axis 0 to
  ``(total_slots, node_dim)``;
- ``left`` / ``right`` — child indices, concatenated the same way;
- ``slots``     — rows each example occupies in the concatenated tables;
- ``num_nodes`` — real (non-sentinel) node count per example.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro.featurization.featurizer import FeaturizedExample
from repro.featurization.plan_encoder import FlattenedPlan

#: Format tag opening every payload (bump on layout changes).
WIRE_MAGIC = b"FEW1"
_HEADER = struct.Struct("<4q")


def pack_examples(examples: Sequence[FeaturizedExample]) -> bytes:
    """Serialise featurised examples into one self-contained payload."""
    if not examples:
        raise ValueError("cannot pack zero examples")

    def flat(arrays, dtype) -> bytes:
        return np.concatenate(arrays, axis=None, dtype=dtype).tobytes()

    slots = [example.plan.features.shape[0] for example in examples]
    header = _HEADER.pack(
        len(examples),
        examples[0].query_encoding.shape[0],
        examples[0].plan.features.shape[1],
        sum(slots),
    )
    return b"".join(
        (
            WIRE_MAGIC,
            header,
            flat([example.query_encoding for example in examples], np.float64),
            flat([example.plan.features for example in examples], np.float64),
            flat([example.plan.left for example in examples], np.int64),
            flat([example.plan.right for example in examples], np.int64),
            np.array(slots, dtype=np.int64).tobytes(),
            np.array(
                [example.plan.num_nodes for example in examples], dtype=np.int64
            ).tobytes(),
        )
    )


def unpack_examples(payload) -> list[FeaturizedExample]:
    """Rebuild the featurised examples from a :func:`pack_examples` payload.

    ``payload`` is ``bytes`` or any buffer; decoding is ``np.frombuffer``
    views, so the examples alias it.
    """
    view = memoryview(payload)
    if len(view) < len(WIRE_MAGIC) + _HEADER.size or bytes(
        view[: len(WIRE_MAGIC)]
    ) != WIRE_MAGIC:
        raise ValueError(
            f"not a {WIRE_MAGIC!r} scoring payload ({len(payload)} bytes)"
        )
    offset = len(WIRE_MAGIC)
    n, query_dim, node_dim, total_slots = _HEADER.unpack_from(view, offset)
    offset += _HEADER.size

    def take(count: int, dtype) -> np.ndarray:
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(view):
            raise ValueError(
                f"corrupt payload: wanted {nbytes} bytes at offset {offset}, "
                f"have {len(view)}"
            )
        array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return array

    queries = take(n * query_dim, np.float64).reshape(n, query_dim)
    features = take(total_slots * node_dim, np.float64).reshape(total_slots, node_dim)
    left = take(total_slots, np.int64)
    right = take(total_slots, np.int64)
    slots = take(n, np.int64)
    num_nodes = take(n, np.int64)
    if offset != len(view):
        raise ValueError(
            f"corrupt payload: {len(view) - offset} trailing bytes after parse"
        )
    if int(slots.sum()) != total_slots:
        raise ValueError(
            f"corrupt payload: slots account for {int(slots.sum())} node rows, "
            f"tables hold {total_slots}"
        )
    examples: list[FeaturizedExample] = []
    row = 0
    for i in range(n):
        rows = int(slots[i])
        examples.append(
            FeaturizedExample(
                query_encoding=queries[i],
                plan=FlattenedPlan(
                    features=features[row : row + rows],
                    left=left[row : row + rows],
                    right=right[row : row + rows],
                    num_nodes=int(num_nodes[i]),
                ),
            )
        )
        row += rows
    return examples


def pack_predictions(values: np.ndarray) -> bytes:
    """Serialise a prediction vector (raw float64 buffer)."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def unpack_predictions(payload) -> np.ndarray:
    """Rebuild a prediction vector from :func:`pack_predictions` bytes.

    Accepts any buffer and always copies.
    """
    return np.frombuffer(payload, dtype=np.float64).copy()


# ---------------------------------------------------------------------- #
# Trace carriage
# ---------------------------------------------------------------------- #
# ``unpack_examples`` rejects trailing bytes by design, so the trace id
# cannot ride inside the FEW1 layout.  Traced payloads instead wear a thin
# outer envelope with its own magic: requests carry the trace id to the
# scorer, replies carry the scorer-measured forward-pass duration back.
# Untraced payloads travel bare; ``detach_*`` pass them through untouched,
# so mixed traffic (and old spool replays) keeps working.
TRACE_MAGIC = b"FET1"
SPAN_MAGIC = b"FES1"
_TRACE_HEADER = struct.Struct("<H")  # trace-id byte length
_SPAN_HEADER = struct.Struct("<qd")  # scorer worker id, duration seconds


def attach_trace(payload: bytes, trace_id: str) -> bytes:
    """Wrap a request payload with the originating trace id."""
    encoded = trace_id.encode("ascii", "replace")
    return b"".join((TRACE_MAGIC, _TRACE_HEADER.pack(len(encoded)), encoded, payload))


def detach_trace(payload: bytes) -> "tuple[str | None, bytes]":
    """Split ``(trace_id, inner payload)``; bare payloads pass through."""
    if not payload.startswith(TRACE_MAGIC):
        return None, payload
    offset = len(TRACE_MAGIC)
    (id_len,) = _TRACE_HEADER.unpack_from(payload, offset)
    offset += _TRACE_HEADER.size
    trace_id = payload[offset : offset + id_len].decode("ascii", "replace")
    return trace_id, payload[offset + id_len :]


def attach_span(payload: bytes, worker_id: int, seconds: float) -> bytes:
    """Wrap a reply payload with the scorer-measured forward duration."""
    return b"".join((SPAN_MAGIC, _SPAN_HEADER.pack(worker_id, seconds), payload))


def detach_span(payload: bytes) -> "tuple[tuple[int, float] | None, bytes]":
    """Split ``((worker_id, seconds), inner payload)``; bare passes through."""
    if not payload.startswith(SPAN_MAGIC):
        return None, payload
    worker_id, seconds = _SPAN_HEADER.unpack_from(payload, len(SPAN_MAGIC))
    return (worker_id, seconds), payload[len(SPAN_MAGIC) + _SPAN_HEADER.size :]
