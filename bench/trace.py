"""Per-layer span ledger, installed from the benchmark's side.

``src/`` has no instrumentation spine yet (ROADMAP item 1), so the benchmark
wraps a fixed table of callables at the layer seams: class attributes are
patched in place, module-level functions are patched in their module *and*
rebound wherever a loaded ``repro.*`` module holds a ``from … import`` alias.
Each wrapper records one span; a span stack gives every span its parent, and a
layer's **self time** is its span's duration minus the time its child spans
cover.  A span entered while the same op is already the innermost open span
(``AbsenceProof.verify`` → ``PresenceProof.verify``, a subclass calling
``super()``) is merged into it, so ``calls`` counts logical operations.

Totals are aggregated as spans close; the first :data:`SPAN_CAP` raw spans
are kept in memory and written out when the run ends (``write_spans``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Raw spans kept for the trace file; totals keep counting past the cap.
SPAN_CAP = 200_000

#: ``layer.op`` → the callables whose time it owns, as ``module:attr.path``.
#: Every target must be *defined* on the named owner; ``resolve`` fails loudly
#: otherwise, so a rename in ``src/`` cannot silently drop a layer.
SPAN_TABLE: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("crypto.verify", ("repro.crypto.signing:PublicKey.verify",)),
    ("crypto.sign", ("repro.crypto.signing:PrivateKey.sign",)),
    ("crypto.verify_batch", ("repro.crypto.signing:verify_batch",)),
    (
        "crypto.hashchain",
        (
            "repro.crypto.hashchain:HashChain.__post_init__",
            "repro.crypto.hashchain:chain_apply",
            "repro.crypto.hashchain:verify_freshness",
            "repro.crypto.hashchain:statement_age",
        ),
    ),
    (
        "crypto.merkle_verify",
        (
            "repro.crypto.merkle:PresenceProof.verify",
            "repro.crypto.merkle:AbsenceProof.verify",
        ),
    ),
    (
        "store.insert_batch",
        (
            "repro.store.naive:NaiveMerkleStore.insert_batch",
            "repro.store.incremental:IncrementalMerkleStore.insert_batch",
            "repro.store.compact:CompactMerkleStore.insert_batch",
            "repro.store.durable:WALOverlay.insert_batch",
        ),
    ),
    (
        "store.prove",
        (
            "repro.store.base:AuthenticatedStore.prove",
            "repro.store.base:SortedLeafStore.prove_presence",
            "repro.store.base:SortedLeafStore.prove_absence",
        ),
    ),
    (
        "store.root",
        (
            "repro.store.base:SortedLeafStore.root",
            "repro.store.compact:CompactMerkleStore.root",
        ),
    ),
    # The WAL has no public seam; this private hook is the one exception.
    ("store.wal_append", ("repro.store.durable:WALOverlay._append_record",)),
    ("store.snapshot", ("repro.store.durable:WALOverlay.snapshot",)),
    ("dictionary.ca_insert", ("repro.dictionary.authdict:CADictionary.insert",)),
    ("dictionary.update_many", ("repro.dictionary.authdict:ReplicaDictionary.update_many",)),
    ("dictionary.status_verify", ("repro.dictionary.proofs:RevocationStatus.verify",)),
    ("dictionary.refresh", ("repro.dictionary.authdict:CADictionary.refresh",)),
    ("messages.encode_status", ("repro.ritm.messages:encode_status",)),
    ("messages.decode_status", ("repro.ritm.messages:decode_status",)),
    ("messages.encode_issuance", ("repro.ritm.messages:encode_issuance",)),
    ("messages.decode_issuance", ("repro.ritm.messages:decode_issuance",)),
    ("replication.encode_segment", ("repro.ritm.replication:encode_segment",)),
    ("replication.decode_segment", ("repro.ritm.replication:decode_segment",)),
    ("dpi.inspect", ("repro.ritm.dpi:DPIEngine.inspect",)),
    ("agent.process_packet", ("repro.ritm.agent:RevocationAgent.process_packet",)),
    ("agent.build_status", ("repro.ritm.agent:RevocationAgent.build_status",)),
    ("agent.apply_issuances", ("repro.ritm.agent:RevocationAgent.apply_issuances",)),
    ("client.handle_packet", ("repro.ritm.client:RITMClient.handle_packet",)),
    ("server.handle_packet", ("repro.ritm.server:RITMServer.handle_packet",)),
    ("ca_service.revoke", ("repro.ritm.ca_service:RITMCertificationAuthority.revoke",)),
    ("ca_service.refresh", ("repro.ritm.ca_service:RITMCertificationAuthority.refresh",)),
    ("dissemination.pull", ("repro.ritm.dissemination:RADisseminationClient.pull",)),
    ("cdn.publish", ("repro.cdn.network:CDNNetwork.publish",)),
    ("cdn.download", ("repro.cdn.network:CDNNetwork.download",)),
    (
        "tls.chain_validate",
        (
            "repro.tls.connection:ChainValidationCache.validate",
            "repro.pki.validation:validate_chain",
        ),
    ),
    (
        "tls.client_record",
        (
            "repro.tls.connection:TLSClientConnection.client_hello",
            "repro.tls.connection:TLSClientConnection.process_record",
        ),
    ),
    (
        "tls.records_codec",
        (
            "repro.tls.records:parse_records",
            "repro.tls.records:serialize_records",
            "repro.tls.records:TLSRecord.to_bytes",
        ),
    ),
    (
        "net.path_send",
        (
            "repro.net.path:PathEngine.send_from_client",
            "repro.net.path:PathEngine.send_from_server",
        ),
    ),
    (
        "net.scheduler_run",
        (
            "repro.net.simulator:EventScheduler.run_all",
            "repro.net.simulator:EventScheduler.run_until",
        ),
    ),
    ("engine.run", ("repro.scenarios.engine.core:FleetEngine.run",)),
    ("workloads.stream", ("repro.workloads.streaming:StreamingWorkload.batches",)),
)

OP_NAMES: Tuple[str, ...] = tuple(name for name, _ in SPAN_TABLE)


def resolve(target: str) -> Tuple[Any, str, Callable]:
    """``module:attr.path`` → (owner, attribute name, the callable defined there)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    try:
        original = vars(owner)[attribute]
    except KeyError:
        raise LookupError(
            f"span target {target!r} is not defined on {owner!r}; was it renamed in src/?"
        ) from None
    if not callable(original):
        raise LookupError(f"span target {target!r} is not a plain callable")
    return owner, attribute, original


class Tracer:
    """Span stack, per-op totals, and the bounded raw-span buffer."""

    def __init__(
        self,
        ops: Sequence[str] = OP_NAMES,
        clock: Callable[[], float] = time.perf_counter,
        span_cap: int = SPAN_CAP,
    ) -> None:
        self.ops = tuple(ops)
        self.calls: List[int] = [0] * len(self.ops)
        self.self_s: List[float] = [0.0] * len(self.ops)
        #: Time inside outermost spans — the numerator of ``trace.coverage``.
        self.root_s = 0.0
        #: ``(span id, parent id or -1, request, op index, start, end)``.
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        #: Set by the workload loop; spans of one benchmark operation share it.
        self.request = 0
        self._clock = clock
        self._span_cap = span_cap
        self._stack: List[list] = []  # frames: [op index, child seconds, span id]
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, op: int, function: Callable) -> Callable:
        """A timing wrapper that books ``function`` under op index ``op``."""
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(op, function)
        enter, leave, stack = self._enter, self._leave, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == op:
                return function(*args, **kwargs)
            frame = enter(op)
            try:
                return function(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = function
        return traced

    def _wrap_generator(self, op: int, function: Callable) -> Callable:
        """Generators do their work on ``next()``: one span per resumption."""
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                frame = enter(op)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                yield item

        traced.__wrapped__ = function
        return traced

    def _enter(self, op: int) -> list:
        frame = [op, 0.0, self._next_id, self._clock()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        op, child_s, span_id, start = frame
        duration = end - start
        self.calls[op] += 1
        self.self_s[op] += duration - child_s
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        else:
            self.root_s += duration
            parent = -1
        if len(self.spans) < self._span_cap:
            self.spans.append((span_id, parent, self.request, op, start, end))

    # -- installation --------------------------------------------------------

    def install(self, table: Sequence[Tuple[str, Sequence[str]]] = SPAN_TABLE) -> None:
        """Patch every target of ``table`` (whose ops must match ``self.ops``)."""
        for op, (name, targets) in enumerate(table):
            if name != self.ops[op]:
                raise ValueError(f"span table op {name!r} does not match tracer op {self.ops[op]!r}")
            for target in targets:
                owner, attribute, original = resolve(target)
                wrapper = self.wrap(op, original)
                if isinstance(owner, ModuleType):
                    self._rebind_aliases(original, wrapper)
                else:
                    self._patch(owner, attribute, original, wrapper)

    def _rebind_aliases(self, original: Callable, wrapper: Callable) -> None:
        """Swap a module-level function everywhere ``repro`` holds it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (totals and spans are kept)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``op name → (calls, self seconds)``."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.ops)}

    def write_spans(self, path: Path) -> None:
        """One header line, then one JSON object per retained span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "ops": list(self.ops),
                "spans_recorded": len(self.spans),
                "spans_seen": self._next_id,
                "time_unit": "us since first span",
            }
            handle.write(json.dumps(header) + "\n")
            for span_id, parent, request, op, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "op": self.ops[op],
                            "start_us": round((start - origin) * 1e6, 3),
                            "end_us": round((end - origin) * 1e6, 3),
                        }
                    )
                    + "\n"
                )
