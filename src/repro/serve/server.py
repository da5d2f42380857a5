"""The ``repro serve`` daemon: an asyncio TCP server over the scheduler.

One connection handler per client, speaking the NDJSON protocol from
:mod:`repro.serve.protocol`. Requests are dispatched inline on the event
loop (every handler is cheap — real work happens on scheduler slots), so a
single loop thread serves submissions, status polls, and any number of
concurrent event streams.

``SIGTERM``/``SIGINT`` trigger a graceful drain: the listener stops
accepting, queued and running jobs finish, and the process exits — the
behavior the CI smoke job and the drain tests rely on.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Callable, Dict, Optional

from repro.obs import RunContext, ensure_context
from repro.serve import protocol
from repro.serve.jobs import JobRecord
from repro.serve.runner import JobRunner
from repro.serve.scheduler import (
    DrainingError,
    QuotaExceeded,
    QuotaPolicy,
    Scheduler,
)
from repro.serve.state import HotState


class ServeDaemon:
    """Owns the hot state, the scheduler, and the TCP listener."""

    def __init__(
        self,
        host: str = protocol.DEFAULT_HOST,
        port: int = protocol.DEFAULT_PORT,
        slots: int = 2,
        quotas: Optional[QuotaPolicy] = None,
        state: Optional[HotState] = None,
        ctx: Optional[RunContext] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.ctx = ensure_context(ctx, "serve")
        self.state = state if state is not None else HotState(ctx=self.ctx)
        self.scheduler = Scheduler(
            JobRunner(self.state), slots=slots, quotas=quotas, ctx=self.ctx
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._drain_on_shutdown = True

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Start the scheduler and bind the listener (resolves ``port=0``)."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self, drain: bool = True) -> None:
        """Ask the daemon to exit; safe to call from a signal handler."""
        self._drain_on_shutdown = drain
        self._shutdown.set()

    async def run_until_shutdown(
        self, install_signals: bool = True
    ) -> None:
        """Serve until ``shutdown``/``SIGTERM``, then drain and stop."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, self.request_shutdown, True
                    )
                except (NotImplementedError, RuntimeError):
                    break
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        await self.scheduler.stop(drain=self._drain_on_shutdown)

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except ValueError as err:
                    await self._send(writer, protocol.error(str(err)))
                    continue
                await self._dispatch(message, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown with the connection mid-read (client still
            # attached at shutdown): close quietly, don't re-raise into
            # the stream protocol's done-callback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Same teardown race as above, but landing inside
                # wait_closed(); swallowing keeps asyncio's
                # connection_made done-callback from logging it.
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _dispatch(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = message.get("op")
        job_id = message.get("job_id")
        if job_id is not None and not isinstance(job_id, str):
            await self._send(
                writer, protocol.error(f"job_id must be a string, got {job_id!r}")
            )
            return
        handler: Optional[Callable] = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "result": self._op_result,
            "events": self._op_events,
            "cancel": self._op_cancel,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }.get(op) if isinstance(op, str) else None
        if handler is None:
            await self._send(
                writer, protocol.error(f"unknown op {op!r}")
            )
            return
        await handler(message, writer)

    # -- ops -----------------------------------------------------------------------

    async def _op_ping(self, message, writer) -> None:
        await self._send(writer, protocol.ok(server=protocol.SERVER_ID))

    async def _op_submit(self, message, writer) -> None:
        spec = message.get("job")
        problem = protocol.validate_job_spec(spec)
        if problem is not None:
            await self._send(writer, protocol.error(problem))
            return
        try:
            job = self.scheduler.submit(spec)
        except QuotaExceeded as err:
            await self._send(
                writer, protocol.error(str(err), code="quota-exceeded")
            )
            return
        except DrainingError as err:
            await self._send(writer, protocol.error(str(err), code="draining"))
            return
        await self._send(
            writer, protocol.ok(job_id=job.job_id, state=job.state)
        )

    def _job_or_none(self, message) -> Optional[JobRecord]:
        job_id = message.get("job_id")
        return self.scheduler.store.get(job_id) if job_id else None

    async def _op_status(self, message, writer) -> None:
        job = self._job_or_none(message)
        if job is None:
            await self._send(
                writer,
                protocol.error("no such job", code="unknown-job"),
            )
            return
        await self._send(writer, protocol.ok(job=job.to_dict()))

    async def _op_result(self, message, writer) -> None:
        job = self._job_or_none(message)
        if job is None:
            await self._send(
                writer, protocol.error("no such job", code="unknown-job")
            )
            return
        if message.get("wait", False):
            await self._wait_terminal(job)
        if not job.finished:
            await self._send(
                writer,
                protocol.error(
                    f"job {job.job_id} is {job.state}", code="not-finished"
                ),
            )
            return
        await self._send(writer, protocol.ok(job=job.to_dict()))

    async def _op_events(self, message, writer) -> None:
        """Stream a job's event log: full replay, then live to terminal."""
        job = self._job_or_none(message)
        if job is None:
            await self._send(
                writer, protocol.error("no such job", code="unknown-job")
            )
            return
        cursor = 0
        while True:
            while cursor < len(job.events):
                await self._send(writer, job.events[cursor])
                cursor += 1
            if job.finished and cursor == len(job.events):
                return
            job.new_event.clear()
            if cursor < len(job.events) or job.finished:
                continue
            await job.new_event.wait()

    async def _wait_terminal(self, job: JobRecord) -> None:
        while not job.finished:
            job.new_event.clear()
            if job.finished:
                return
            await job.new_event.wait()

    async def _op_cancel(self, message, writer) -> None:
        job_id = message.get("job_id")
        job = self.scheduler.request_cancel(job_id) if job_id else None
        if job is None:
            await self._send(
                writer, protocol.error("no such job", code="unknown-job")
            )
            return
        await self._send(
            writer,
            protocol.ok(
                job_id=job.job_id,
                state=job.state,
                cancel_requested=job.cancel_requested,
            ),
        )

    async def _op_stats(self, message, writer) -> None:
        await self._send(
            writer,
            protocol.ok(
                scheduler=self.scheduler.stats(), state=self.state.stats()
            ),
        )

    async def _op_shutdown(self, message, writer) -> None:
        drain = bool(message.get("drain", True))
        # Flip the scheduler to draining before acknowledging, so a submit
        # sent right after the shutdown reply deterministically rejects.
        self.scheduler.begin_drain()
        await self._send(writer, protocol.ok(draining=drain))
        self.request_shutdown(drain=drain)


def run_daemon(
    host: str = protocol.DEFAULT_HOST,
    port: int = protocol.DEFAULT_PORT,
    slots: int = 2,
    max_active_per_tenant: int = 8,
    on_ready: Optional[Callable[[ServeDaemon], None]] = None,
) -> None:
    """Blocking entry point used by ``repro serve``."""

    async def _main() -> None:
        daemon = ServeDaemon(
            host=host,
            port=port,
            slots=slots,
            quotas=QuotaPolicy(max_active_per_tenant=max_active_per_tenant),
        )
        await daemon.start()
        if on_ready is not None:
            on_ready(daemon)
        await daemon.run_until_shutdown()

    asyncio.run(_main())


__all__ = ["ServeDaemon", "run_daemon"]
