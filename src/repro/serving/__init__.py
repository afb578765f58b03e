"""Concurrent serving front end with adaptive request coalescing.

See :mod:`repro.serving.server` for the design discussion.  The public
surface is :class:`Server`, observable through :class:`ServerStats`;
requests and results are the engine's own
:class:`~repro.engine.query.QueryRequest` /
:class:`~repro.engine.query.QueryResult` transport objects.
"""

from repro.serving.server import RequestFuture, Server, ServerStats

__all__ = ["RequestFuture", "Server", "ServerStats"]
