"""Remote cell execution over SSH (or a loopback subprocess).

:class:`SSHExecutor` drives ``slots`` persistent worker processes, each one
``python -m repro.exec.worker`` in stream mode (:mod:`repro.exec.worker`):
JSONL requests down stdin, one flushed JSONL response per cell back up
stdout.  With a ``host`` the worker launches through ``ssh host ...``; with
``host=None`` it launches the local interpreter directly — the *loopback*
transport, which exercises the identical wire protocol with zero SSH
dependencies (what the tests and the CI smoke job use).

Rows come back as the store's canonical payload
(:func:`~repro.results.store.metrics_to_payload`) and are rebound to the
local :class:`~repro.campaign.spec.RunSpec`, so an SSH-executed campaign
aggregates byte-identically to a serial one.  By default
:attr:`~SSHExecutor.writes_store` is ``False`` — the remote host is assumed
to have no shared filesystem, so the orchestrator persists returned rows
into the local metrics tier.  Pass ``shared_filesystem=True`` (loopback, or
a cluster with a shared scratch) to ship the store roots in the ``config``
handshake instead, letting workers write both tiers directly.  A trace
tier requires it: only the metrics row crosses the wire, so without a
shared filesystem :meth:`~SSHExecutor.start` rejects ``trace_store``.

Failure handling: a channel whose process dies or answers garbage is killed
and respawned once; the interrupted cell surfaces as a transient
:class:`~repro.exec.base.ExecutorError` (the orchestrator retries it — safe,
cells are pure).  When no channel can be (re)spawned the executor raises
:class:`~repro.exec.base.ExecutorDied` and the orchestrator retires it.
"""

from __future__ import annotations

import asyncio
import json
import shlex
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exec.base import Executor, ExecutorDied, ExecutorError, WorkerContext
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.runner import RunMetrics
    from repro.campaign.spec import RunSpec
    from repro.obs.telemetry import Span

_log = get_logger("exec.ssh")

__all__ = ["SSHExecutor"]


def _default_repo_root() -> Path:
    """The import root of this very installation (``src/``) — what the
    loopback transport exports as the worker's ``PYTHONPATH``."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


class _Channel:
    """One worker process plus line-oriented JSONL request/response."""

    def __init__(self, process: asyncio.subprocess.Process, tag: str) -> None:
        self.process = process
        self.tag = tag

    async def request(self, payload: dict, timeout: float | None = 60.0) -> dict:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        )
        await self.process.stdin.drain()
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not line:
            raise ExecutorError(f"{self.tag}: worker closed its stdout")
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ExecutorError(
                f"{self.tag}: undecodable response {line[:200]!r}"
            ) from exc
        if not isinstance(response, dict):
            raise ExecutorError(f"{self.tag}: non-object response {response!r}")
        return response

    async def kill(self) -> None:
        if self.process.returncode is None:
            try:
                self.process.kill()
            except ProcessLookupError:  # pragma: no cover - already reaped
                pass
        try:
            await asyncio.wait_for(self.process.wait(), 5.0)
        except asyncio.TimeoutError:  # pragma: no cover - unkillable child
            pass


class SSHExecutor(Executor):
    """``slots`` persistent stream-mode workers on one (remote) host.

    ``host=None`` is the loopback transport: the worker is the local
    interpreter, launched directly with this checkout on ``PYTHONPATH`` —
    protocol-identical to the SSH path minus the ``ssh`` hop.
    """

    def __init__(
        self,
        host: str | None = None,
        slots: int = 1,
        python: str = "python3",
        repo_root: str | None = None,
        shared_filesystem: bool = False,
        name: str | None = None,
        handshake_timeout: float = 60.0,
    ) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        self.host = host
        self.slots = slots
        self.python = python
        self.repo_root = repo_root
        self.shared_filesystem = shared_filesystem
        self.writes_store = shared_filesystem
        self.name = name if name is not None else f"ssh[{host or 'loopback'}]"
        self.handshake_timeout = handshake_timeout
        self._channels: asyncio.Queue[_Channel] | None = None
        self._alive = 0

    # -- transport ---------------------------------------------------------------

    def _argv(self) -> list[str]:
        if self.host is None:
            return [sys.executable, "-m", "repro.exec.worker"]
        root = self.repo_root if self.repo_root is not None else "."
        remote = (
            f"PYTHONPATH={shlex.quote(root)} "
            f"{shlex.quote(self.python)} -m repro.exec.worker"
        )
        return ["ssh", "-o", "BatchMode=yes", self.host, remote]

    def _config_payload(self) -> dict:
        payload: dict = {"op": "config"}
        if self.shared_filesystem and self.context is not None:
            if self.context.store is not None:
                payload["store"] = str(self.context.store.root)
            if self.context.trace_store is not None:
                payload["trace_store"] = str(self.context.trace_store.root)
        return payload

    async def _spawn(self, tag: str) -> _Channel:
        argv = self._argv()
        env = None
        if self.host is None:
            import os

            env = dict(os.environ)
            root = self.repo_root or str(_default_repo_root())
            existing = env.get("PYTHONPATH")
            env["PYTHONPATH"] = (
                root if not existing else root + os.pathsep + existing
            )
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=env,
        )
        channel = _Channel(process, tag)
        try:
            response = await channel.request(
                self._config_payload(), timeout=self.handshake_timeout
            )
        except (ExecutorError, asyncio.TimeoutError) as exc:
            await channel.kill()
            raise ExecutorError(f"{tag}: config handshake failed: {exc}") from exc
        if not response.get("ok"):
            await channel.kill()
            raise ExecutorError(
                f"{tag}: worker rejected config: {response.get('error')}"
            )
        return channel

    async def start(self, context: WorkerContext) -> None:
        if context.trace_store is not None and not self.shared_filesystem:
            raise ValueError(
                f"{self.name}: the trace tier needs shared_filesystem=True — "
                "only the metrics row crosses the SSH transport"
            )
        await super().start(context)
        self._channels = asyncio.Queue()
        for i in range(self.slots):
            channel = await self._spawn(f"{self.name}#{i}")
            self._channels.put_nowait(channel)
            self._alive += 1
        _log.debug("%s: started %d worker channel(s)", self.name, self.slots)

    # -- execution ---------------------------------------------------------------

    async def run_cell(self, run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
        if self._channels is None or self._alive <= 0:
            raise ExecutorDied(f"{self.name} has no live worker channels")
        from repro.results.store import metrics_from_payload, spec_contents

        channel = await self._channels.get()
        try:
            response = await channel.request(
                {
                    "op": "run",
                    "index": run.index,
                    "run": spec_contents(run),
                },
                timeout=None,  # the orchestrator owns the per-cell timeout
            )
        except (ExecutorError, asyncio.CancelledError):
            # The channel is in an unknown protocol state: kill it and try
            # to respawn a replacement so capacity degrades gracefully.
            await channel.kill()
            self._alive -= 1
            try:
                replacement = await self._spawn(channel.tag)
            except ExecutorError:
                if self._alive <= 0:
                    raise ExecutorDied(
                        f"{self.name}: all worker channels are dead"
                    ) from None
                _log.warning(
                    "%s: lost a worker channel (%d remain)", self.name, self._alive
                )
            else:
                self._channels.put_nowait(replacement)
                self._alive += 1
            raise
        else:
            self._channels.put_nowait(channel)
        if not response.get("ok"):
            raise ExecutorError(
                f"cell {run.index:04d} failed on {self.name}: "
                f"{response.get('error')}"
            )
        row = metrics_from_payload(run, response["row"])
        return row, None

    async def close(self) -> None:
        if self._channels is None:
            return
        while not self._channels.empty():
            channel = self._channels.get_nowait()
            try:
                await asyncio.wait_for(
                    channel.request({"op": "shutdown"}, timeout=5.0), 5.0
                )
            except (ExecutorError, asyncio.TimeoutError):
                pass
            await channel.kill()
        self._channels = None
        self._alive = 0
