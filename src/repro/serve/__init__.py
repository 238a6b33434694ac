"""``repro.serve`` — the HTTP run service over broker, engine and store.

The service front: specs arrive as JSON over HTTP, dedupe against
in-flight jobs by ``spec_hash``, short-circuit through the
:class:`~repro.store.ResultStore`, and fan onto the shared process pool
via ``execute_batch(store=...)``.  Results are served as the
engine's canonical report bytes — byte-identical whether computed or
replayed from the store.

Layering (stdlib asyncio throughout; no web framework in the image):

- :mod:`repro.serve.http` — transport: parse requests, write fixed or
  close-delimited streaming responses;
- :mod:`repro.serve.jobs` — :class:`Job` state machine + event log;
- :mod:`repro.serve.broker` — :class:`Broker` interface and the
  :class:`InMemoryBroker` (queue semantics isolated so a redis/NATS
  backend can drop in);
- :mod:`repro.serve.app` — the route table and entry points.

Run it: ``repro serve --port 8080`` then ``POST /runs`` a RunSpec JSON
(see README quickstart for the curl round trip).
"""

from repro.serve.app import ServeApp, create_app, serve
from repro.serve.broker import Broker, InMemoryBroker
from repro.serve.http import HttpError, Request, Response
from repro.serve.jobs import Job

__all__ = [
    "Broker",
    "HttpError",
    "InMemoryBroker",
    "Job",
    "Request",
    "Response",
    "ServeApp",
    "create_app",
    "serve",
]
