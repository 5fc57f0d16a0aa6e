"""The WebAPI: the reefer demo's browser-facing edge.

In the paper's architecture (Figure 5a) the WebAPI pushes order updates to
the browser UI. Two halves live here:

- :class:`WebAPIService` -- the in-simulation notification sink the actors
  post to, with *forceful disconnection*: a fenced component's late
  notifications are refused, exercising the requirement of Section 2.3 for
  every service KAR components interact with.
- :class:`ReeferWebAPI` -- the real HTTP face: a
  :class:`~repro.net.gateway.KarGateway` over the reefer application, so
  external clients reach the managers through the ordinary sidecar routes
  (``POST /actor/OrderManager/singleton/call/statuses`` and friends) plus
  two read-only reefer views over the recorded notification stream and the
  order metrics (``GET /reefer/notifications``, ``GET /reefer/orders``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kvstore.errors import FencedClientError
from repro.net.gateway import KarGateway, _Reply, _Request, _Route
from repro.sim import Kernel, Latency

if TYPE_CHECKING:
    from repro.reefer.app import ReeferApplication

__all__ = ["ReeferWebAPI", "WebAPIService"]


class WebAPIService:
    """Notification sink with per-client fencing and latency."""

    def __init__(self, kernel: Kernel, latency: Latency = Latency.fixed(0.0005)):
        self.kernel = kernel
        self.latency = latency
        self.notifications: list[tuple[float, str, Any]] = []
        self._fenced: set[str] = set()

    def fence(self, client_id: str) -> None:
        self._fenced.add(client_id)

    def unfence(self, client_id: str) -> None:
        self._fenced.discard(client_id)

    def client(self, client_id: str) -> "WebAPIClient":
        return WebAPIClient(self, client_id)

    def events(self, kind: str) -> list[Any]:
        return [payload for _t, k, payload in self.notifications if k == kind]


class WebAPIClient:
    def __init__(self, service: WebAPIService, client_id: str):
        self.service = service
        self.client_id = client_id

    async def post(self, kind: str, payload: Any) -> None:
        await self.service.kernel.sleep(
            self.service.latency.sample(self.service.kernel.rng)
        )
        if self.client_id in self.service._fenced:
            raise FencedClientError(self.client_id)
        self.service.notifications.append(
            (self.service.kernel.now, kind, payload)
        )


class ReeferWebAPI(KarGateway):
    """The reefer demo served over the sidecar gateway.

    Adds two read-only routes on top of the standard surface::

        GET /reefer/notifications[?kind=K&limit=N]  -> the WebAPI stream
        GET /reefer/orders                          -> order metrics summary

    Actor-facing traffic (order status, voyage/depot stats) uses the plain
    sidecar routes against the singleton manager actors.
    """

    def __init__(self, reefer: "ReeferApplication", **kwargs: Any):
        super().__init__(reefer.app, **kwargs)
        self.reefer = reefer

    def _match(self, request: _Request) -> _Route | None:
        matched = super()._match(request)
        if matched is not None:
            return matched
        parts = [part for part in request.path.split("/") if part]
        if request.method != "GET" or not parts or parts[0] != "reefer":
            return None
        if parts[1:] == ["notifications"]:
            return (
                "GET /reefer/notifications",
                None,
                None,
                lambda: self._do_notifications(request),
            )
        if parts[1:] == ["orders"]:
            return "GET /reefer/orders", None, None, self._do_orders
        return None

    @staticmethod
    def _query(request: _Request) -> dict[str, str]:
        params: dict[str, str] = {}
        for pair in request.query.split("&"):
            name, sep, value = pair.partition("=")
            if sep:
                params[name] = value
        return params

    def _do_notifications(self, request: _Request) -> _Reply:
        params = self._query(request)
        kind = params.get("kind")
        try:
            limit = int(params.get("limit", "100"))
        except ValueError:
            limit = 100
        webapi = self.reefer.webapi
        rows = [
            {"at": at, "kind": k, "payload": payload}
            for at, k, payload in webapi.notifications
            if kind is None or k == kind
        ]
        return _Reply(
            200, {"total": len(rows), "notifications": rows[-limit:]}
        )

    def _do_orders(self) -> _Reply:
        metrics = self.reefer.metrics
        return _Reply(200, metrics.summary())
