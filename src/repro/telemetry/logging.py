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
) -> logging.Logger:
    """Route the ``repro`` logger tree to JSON lines on ``stream`` (stderr).

    Idempotent: reconfiguring replaces the previously installed JSON handler
    instead of stacking duplicates.
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
    logger.addHandler(handler)
    return logger


def maybe_configure_from_env() -> bool:
    """Configure JSON logging when ``REPRO_LOG_JSON=1`` (child bootstrap)."""
    if os.environ.get(ENV_FLAG, "") != "1":
        return False
    configure_json_logging()
    return True
