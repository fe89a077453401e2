"""Span recording around the program's layer entry points.

The traced pass installs wrappers from this file around the public
entry points of each layer (nothing under ``src/`` changes).  Each
wrapped call records one span -- id, parent, name, start, end -- kept
in memory and written out when the pass ends.  Counts ride the same
wrappers, so ratios are taken where the work happens.

Layer self time is a span's duration minus the time its child spans
cover; ``sim.dispatch_s`` (the event loop's own cost) and
``protocol.handle_s.<Msg>`` (a handler minus the sends, checks and
latency lookups it calls) are self times.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory spans, and the wrappers that record them."""

    def __init__(self) -> None:
        #: [id, parent, name, start, end]; ids start at 1, 0 is "root".
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = [0]

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> list:
        span = [len(self.spans) + 1, self._stack[-1], name, perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        namer: Optional[Callable[[tuple], str]] = None,
        on_result: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``namer(args)`` names the span per call (e.g. by message type);
        ``on_result(args, result)`` turns a call into counts.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack

        # open()/close() inlined: this runs once per wrapped call, and
        # its cost is the traced pass's overhead.
        def wrapper(*args, **kwargs):
            span = [len(spans) + 1, stack[-1],
                    namer(args) if namer is not None else name,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    # -- reduction ------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total`` and ``self``
        seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end in self.spans:
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total": 0.0, "self": 0.0}
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - covered.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap every measured layer's entry points for the rest of this
    process (the traced pass runs in an interpreter of its own)."""
    import repro.consistency.checker as checker
    import repro.experiments.workloads as experiment_workloads
    import repro.net.datagram as datagram
    import repro.obs.audit as audit
    import repro.protocol.join as join
    import repro.protocol.leave as leave
    import repro.recovery.driver as recovery
    from repro.consistency.incremental import IncrementalChecker
    from repro.network.node import NetworkNode
    from repro.network.transport import Transport
    from repro.protocol.node import ProtocolNode
    from repro.runtime.realtime import AsyncioRuntime
    from repro.sim.scheduler import Simulator
    from repro.topology.attachment import HostAttachment, TopologyLatencyModel
    from repro.topology.latency import HierarchicalLatency

    counts = recorder.counts
    wrap = recorder.wrap

    # routing.oracle and topology (set-up layers)
    wrap(join, "build_consistent_tables", "oracle.build")
    wrap(experiment_workloads, "generate_transit_stub", "topology.build")
    wrap(HierarchicalLatency, "__init__", "topology.build")
    wrap(HostAttachment, "__init__", "topology.build")
    wrap(TopologyLatencyModel, "latency", "topology.latency")

    # protocol: node registration and per-type handlers
    wrap(ProtocolNode, "__init__", "protocol.register")
    wrap(NetworkNode, "receive", "protocol.handle",
         namer=lambda args: "protocol.handle." + type(args[1]).__name__)

    # sim: the event loop of either runtime
    def count_events(_args, fired):
        counts["sim.events"] += fired

    wrap(Simulator, "run", "sim.run", on_result=count_events)
    wrap(AsyncioRuntime, "run", "sim.run", on_result=count_events)

    # network: the transport send path
    wrap(Transport, "send", "network.send")
    wrap(datagram.DatagramTransport, "send", "network.send")
    wrap(datagram.DatagramTransport, "send_lossy", "network.send")

    # consistency: the full checker (both import sites) and the
    # incremental one
    def count_checked(_args, report):
        counts["consistency.nodes_checked"] += report.nodes_checked
        counts["consistency.entries_checked"] += report.entries_checked

    wrap(checker, "check_consistency", "consistency.check",
         on_result=count_checked)
    wrap(audit, "check_consistency", "consistency.check",
         on_result=count_checked)
    wrap(IncrementalChecker, "check", "consistency.incremental.check")

    # obs.audit
    wrap(audit.LiveAuditor, "sample", "audit.sample")
    wrap(audit.LiveAuditor, "finalize", "audit.finalize")

    # protocol.leave and recovery drivers
    wrap(leave, "leave_sequentially", "leave")
    wrap(recovery, "recover_from_failures", "recovery")

    # net.wire framing (the names the datagram transport calls)
    def count_frame(_args, data):
        counts["wire.frames"] += 1
        counts["wire.bytes"] += len(data)

    wrap(datagram, "encode_frame", "wire.encode", on_result=count_frame)
    wrap(datagram, "decode_frame", "wire.decode")
