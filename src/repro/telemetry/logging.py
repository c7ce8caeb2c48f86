"""Structured JSON logging shared by gateway, supervisor and scorer processes.

One formatter, one configuration entry point.  Every line is a single JSON
object carrying the timestamp, level, logger, message, the active request's
``trace_id`` (when the log call happens inside a traced request) and the
process context set via :func:`set_log_context` (worker id, process role,
planner).  Extra fields passed as ``logger.info(..., extra={...})`` with a
``repro_fields`` dict are merged in.

Child processes cannot inherit a configured handler across ``spawn``;
``examples/serve_http.py --log-json`` therefore also sets ``REPRO_LOG_JSON=1``
in the environment and scorer/worker bootstrap calls
:func:`maybe_configure_from_env`.

High-QPS protection: :class:`RateLimitFilter` is a token-bucket
``logging.Filter`` that bounds emitted lines per second (WARNING and above
always pass).  Suppressions are counted process-wide; a gateway's registry
reads the count (:func:`logs_suppressed_total`) as the
``repro_logs_suppressed_total`` counter.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time

#: Environment toggle spawned processes check at bootstrap.
ENV_FLAG = "REPRO_LOG_JSON"

_context_lock = threading.Lock()
_context: dict = {}


def set_log_context(**fields) -> None:
    """Merge process-wide fields (worker_id, process role) into every line."""
    with _context_lock:
        for name, value in fields.items():
            if value is None:
                _context.pop(name, None)
            else:
                _context[name] = value


def get_log_context() -> dict:
    with _context_lock:
        return dict(_context)


_suppressed_lock = threading.Lock()
_suppressed_total = 0


def note_suppressed(count: int = 1) -> None:
    """Record ``count`` log lines dropped by a rate limiter."""
    global _suppressed_total
    with _suppressed_lock:
        _suppressed_total += count


def logs_suppressed_total() -> int:
    """Process-wide count of rate-limited (dropped) log lines."""
    with _suppressed_lock:
        return _suppressed_total


class RateLimitFilter(logging.Filter):
    """Token-bucket sampling filter for high-volume handlers.

    Allows bursts of up to ``burst`` records, then sustains
    ``rate_per_second``; records at WARNING and above always pass (an
    incident must never be rate-limited away).  Dropped records increment
    the process-wide suppression counter read by
    :func:`logs_suppressed_total`.
    """

    def __init__(
        self,
        rate_per_second: float = 50.0,
        burst: int = 100,
        *,
        clock=time.monotonic,
    ) -> None:
        super().__init__()
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_per_second = float(rate_per_second)
        self.burst = int(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last = clock()
        self._suppressed = 0

    @property
    def suppressed(self) -> int:
        with self._lock:
            return self._suppressed

    def filter(self, record: logging.LogRecord) -> bool:
        if record.levelno >= logging.WARNING:
            return True
        now = self._clock()
        with self._lock:
            elapsed = max(now - self._last, 0.0)
            self._last = now
            self._tokens = min(
                self._tokens + elapsed * self.rate_per_second, float(self.burst)
            )
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            self._suppressed += 1
        note_suppressed()
        return False


class JsonLogFormatter(logging.Formatter):
    """Renders one record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        from repro.telemetry.trace import current_trace_id

        payload: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            payload["trace_id"] = trace_id
        payload.update(get_log_context())
        fields = getattr(record, "repro_fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        try:
            return json.dumps(payload, default=str)
        except (TypeError, ValueError):
            return json.dumps(
                {"ts": time.time(), "level": "error",
                 "message": "unserialisable log record", "logger": record.name}
            )


def configure_json_logging(
    level: int = logging.INFO,
    stream=None,
    logger_name: str = "repro",
    *,
    rate_limit_per_second: float | None = None,
    rate_limit_burst: int | None = None,
) -> logging.Logger:
    """Route the ``repro`` logger tree to JSON lines on ``stream`` (stderr).

    Idempotent: reconfiguring replaces the previously installed JSON handler
    instead of stacking duplicates.  When ``rate_limit_per_second`` is set,
    a :class:`RateLimitFilter` caps sub-WARNING volume on the handler
    (``rate_limit_burst`` defaults to twice the sustained rate).
    """
    logger = logging.getLogger(logger_name)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_json", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_json = True
    if rate_limit_per_second is not None:
        burst = (
            rate_limit_burst
            if rate_limit_burst is not None
            else max(int(rate_limit_per_second * 2), 1)
        )
        handler.addFilter(RateLimitFilter(rate_limit_per_second, burst))
    logger.addHandler(handler)
    return logger


def maybe_configure_from_env() -> bool:
    """Configure JSON logging when ``REPRO_LOG_JSON=1`` (child bootstrap).

    ``REPRO_LOG_RATE`` (lines/second, float) optionally arms the
    token-bucket filter in the same hop.
    """
    if os.environ.get(ENV_FLAG, "") != "1":
        return False
    rate_raw = os.environ.get("REPRO_LOG_RATE", "")
    rate: float | None = None
    if rate_raw:
        try:
            parsed = float(rate_raw)
        except ValueError:
            parsed = 0.0
        if parsed > 0:
            rate = parsed
    configure_json_logging(rate_limit_per_second=rate)
    return True
