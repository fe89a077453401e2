"""The benchmark's four workloads; one call runs one instance.

An instance builds its inputs from the seed alone, times its phases in CPU
time of this process, counts the operations it attempted and how many
failed, and checks the program's outputs with :mod:`oracle` (outside
the timed phases).  Phases:

* ``setup_s``  -- build the starting network: IDs, topology and host
  attachment, oracle tables, node registration, sockets, base joins;
* ``run_s``    -- the membership operations (joins, leaves, crash
  recovery), with any auditor riding them;
* ``verify_s`` -- the program's closing Definition 3.8 verification of
  all live tables, per pass when one pass is too short to time.

A phase may be timed in several blocks (``churn-recovery`` times its
joins, leaves and recovery apart); the instance reports each block.

It also reads the growth of the resident set's high-water mark
(``ru_maxrss``) from before set-up to the end of the last timed phase.
"""

from __future__ import annotations

import gc
import os
import random
import resource
from contextlib import contextmanager
from time import process_time
from typing import Callable, Dict, List

import repro.consistency.checker as checker
import repro.protocol.leave as leave
import repro.recovery.driver as recovery
from repro.analysis.expected_cost import expected_join_noti_upper_bound
from repro.consistency.incremental import IncrementalChecker
from repro.experiments.workloads import make_workload
from repro.ids.idspace import IdSpace
from repro.net.datagram import DatagramTransport
from repro.net.wire import table_from_wire, table_to_wire
from repro.network.stats import MessageStats
from repro.obs.audit import AuditConfig
from repro.protocol.network_init import single_node_table
from repro.protocol.node import ProtocolNode
from repro.protocol.status import NodeStatus
from repro.runtime.realtime import AsyncioRuntime
from repro.topology.transit_stub import TransitStubParams

import oracle

# scale-audit: an oracle network audited while a few hundred join.
SCALE_N, SCALE_M, SCALE_BASE, SCALE_DIGITS = 10_000, 300, 4, 9
SCALE_AUDIT_INTERVAL = 200.0
# fig15b-paper: Figure 15(b) at the paper's full scale.
FIG_N, FIG_M, FIG_BASE, FIG_DIGITS = 3096, 1000, 16, 8
FIG_VERIFY_PASSES = 2
# churn-recovery: joins, sequential leaves, crashes and recovery.
CHURN_N, CHURN_M, CHURN_BASE, CHURN_DIGITS = 450, 200, 4, 6
CHURN_LEAVES, CHURN_CRASHES, CHURN_VERIFY_PASSES = 30, 10, 20
CHURN_SETUP_PASSES = 8
# udp-loopback: datagram transports on one asyncio runtime.
UDP_BASE_NODES, UDP_JOINERS, UDP_BASE, UDP_DIGITS = 68, 32, 4, 6
UDP_ROUNDS = 2
UDP_TIME_SCALE, UDP_VERIFY_PASSES = 0.001, 10


class Instance:
    """Timers, operation counts and check outcomes of one instance."""

    def __init__(self, check: bool = True, spans=None):
        #: CPU seconds of each timed block, per phase.
        self.seconds: Dict[str, List[float]] = {
            "setup_s": [], "run_s": [], "verify_s": []}
        #: Resident set before set-up, and the high-water mark at the
        #: end of the last timed phase (bytes).
        self.rss_before = _resident_bytes()
        self.rss_peak = self.rss_before
        self.check = check
        self.spans = spans
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: Membership operations of the run phase, protocol messages
        #: and bytes they sent, join durations in protocol time.
        self.ops = 0
        self.msgs = 0
        self.bytes = 0
        self.join_vt: List[float] = []
        self.nodes = 0
        #: Count-type per-layer figures read off the program's objects.
        self.layer: Dict[str, float] = {}

    @contextmanager
    def phase(self, key: str, passes: int = 1):
        """Time one block of phase ``key``; a block of ``passes``
        repeated passes is reported per pass."""
        span = self.spans.open("phase." + key) if self.spans else None
        start = process_time()
        try:
            yield
        finally:
            self.seconds[key].append((process_time() - start) / passes)
            self.rss_peak = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
            if span is not None:
                self.spans.close(span)

    def passes(self, count: int) -> int:
        """How often to repeat a phase too short to time in one pass.
        The traced pass runs it once, so that its per-layer figures
        describe one verification, as ``verify_s`` does."""
        return 1 if self.spans is not None else count

    def expect(self, what: str, check: Callable[[], List[str]]) -> None:
        """One independent check of a phase's outcome (an operation
        that fails on any violation); skipped in untimed passes."""
        if not self.check:
            return
        problems = check()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def count_joins(self, statuses: Dict) -> None:
        """Joins attempted; a join not reaching *in_system* failed."""
        self.attempted += len(statuses)
        self.failed += sum(
            1 for status in statuses.values() if not status.is_s_node)
        self.expect("Theorem 2", lambda: oracle.all_in_system(statuses))

    def result(self) -> dict:
        return {
            "seconds": self.seconds,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "ops": self.ops,
            "msgs": self.msgs,
            "bytes": self.bytes,
            "join_vt": self.join_vt,
            "peak_bytes": self.rss_peak - self.rss_before,
            "nodes": self.nodes,
            "layer": self.layer,
        }


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class JoinClock:
    """Phase listener: join durations from ``begin_join`` (*copying*)
    to *in_system*, in protocol time."""

    def __init__(self) -> None:
        self.started: Dict = {}
        self.durations: List[float] = []

    def __call__(self, node_id, status, now) -> None:
        if status.value == "copying":
            self.started[node_id] = now
        elif status.value == "in_system" and node_id in self.started:
            self.durations.append(now - self.started.pop(node_id))


def _sim_layer(instance: Instance, net) -> None:
    stats = net.stats
    join_noti = net.join_noti_counts()
    instance.layer.update({
        "protocol.join_noti_mean": sum(join_noti) / len(join_noti),
        "protocol.theorem3_max": max(net.theorem3_counts()),
        "network.msgs": stats.total_messages,
        "network.kib": stats.total_bytes / 1024.0,
    })


def scale_audit(seed: int, instance: Instance) -> None:
    clock = JoinClock()
    with instance.phase("setup_s"):
        workload = make_workload(
            base=SCALE_BASE, num_digits=SCALE_DIGITS, n=SCALE_N,
            m=SCALE_M, seed=seed, use_topology=False)
        net = workload.network
        auditor = net.attach_auditor(AuditConfig(
            interval=SCALE_AUDIT_INTERVAL, incremental=True,
            stall_timeout=10_000.0))
        net.add_phase_listener(clock)
    instance.nodes = SCALE_N + SCALE_M
    with instance.phase("run_s"):
        workload.start_all_joins(at=0.0)
        net.run()
    with instance.phase("verify_s"):
        report = auditor.finalize()
    instance.ops = SCALE_M
    instance.msgs, instance.bytes = net.stats.total_messages, net.stats.total_bytes
    instance.join_vt = clock.durations
    instance.count_joins({j: net.nodes[j].status for j in workload.joiner_ids})
    instance.expect("auditor verdict", lambda: [] if report.passed else [
        str(i.to_json_dict()) for i in report.hard_incidents[:3]])
    instance.expect("Definition 3.8", lambda: oracle.definition_38(net.tables()))
    instance.expect("Theorem 3", lambda: oracle.theorem3(
        workload.joiner_ids, net.stats.sent_by, SCALE_DIGITS))
    incremental = auditor._incremental
    _sim_layer(instance, net)
    instance.layer.update({
        "audit.samples": len(report.samples),
        "consistency.incremental.nodes_reverified":
            incremental.nodes_reverified,
        "consistency.incremental.full_rescans": incremental.full_rescans,
    })


def fig15b_paper(seed: int, instance: Instance) -> None:
    clock = JoinClock()
    with instance.phase("setup_s"):
        workload = make_workload(
            base=FIG_BASE, num_digits=FIG_DIGITS, n=FIG_N, m=FIG_M,
            seed=seed, use_topology=True,
            topology_params=TransitStubParams())
        net = workload.network
        net.add_phase_listener(clock)
    instance.nodes = FIG_N + FIG_M
    with instance.phase("run_s"):
        workload.start_all_joins(at=0.0)
        net.run()
    passes = instance.passes(FIG_VERIFY_PASSES)
    with instance.phase("verify_s", passes):
        for _ in range(passes):
            report = net.check_consistency()
    instance.ops = FIG_M
    instance.msgs, instance.bytes = net.stats.total_messages, net.stats.total_bytes
    instance.join_vt = clock.durations
    instance.count_joins({j: net.nodes[j].status for j in workload.joiner_ids})
    instance.expect("program verdict", lambda: [] if report.consistent else [
        f"{len(report.violations)} violations reported by the program"])
    instance.expect("Definition 3.8", lambda: oracle.definition_38(net.tables()))
    instance.expect("Theorem 3", lambda: oracle.theorem3(
        workload.joiner_ids, net.stats.sent_by, FIG_DIGITS))
    bound = expected_join_noti_upper_bound(FIG_N, FIG_M, FIG_BASE, FIG_DIGITS)
    instance.expect("Theorem 5", lambda: oracle.theorem5_mean(
        net.join_noti_counts(), bound))
    _sim_layer(instance, net)


def churn_recovery(seed: int, instance: Instance, n: int = CHURN_N,
                   m: int = CHURN_M, base: int = CHURN_BASE,
                   digits: int = CHURN_DIGITS, leaves: int = CHURN_LEAVES,
                   crashes: int = CHURN_CRASHES) -> None:
    rng = random.Random(f"churn-{seed}")
    clock = JoinClock()
    # Set-up (about 35 ms) is too short to time in one pass: the same
    # network is built ``passes`` times, and the last build is used.
    passes = instance.passes(CHURN_SETUP_PASSES)
    for _ in range(passes):
        workload = net = None
        gc.collect()
        with instance.phase("setup_s", passes):
            workload = make_workload(
                base=base, num_digits=digits, n=n,
                m=m, seed=seed, use_topology=False)
            net = workload.network
            net.add_phase_listener(clock)
    instance.nodes = n + m
    stats = net.stats
    checker = IncrementalChecker()

    with instance.phase("run_s"):
        workload.start_all_joins(at=0.0)
        net.run()
    instance.count_joins({j: net.nodes[j].status for j in workload.joiner_ids})
    instance.expect("Definition 3.8 after joins",
                  lambda: oracle.definition_38(net.tables()))
    instance.expect("Theorem 3", lambda: oracle.theorem3(
        workload.joiner_ids, stats.sent_by, digits))

    leavers = rng.sample(net.member_ids(), leaves)
    before_leaves = stats.total_messages
    audit_violations = 0
    with instance.phase("run_s"):
        for leaver in leavers:
            try:
                leave.leave_sequentially(net, [leaver])
            except RuntimeError:
                instance.failed += 1
            tables = net.tables()
            audit_violations += len(
                checker.check(tables, tables.keys()).violations)
    instance.attempted += leaves
    leave_msgs = stats.total_messages - before_leaves
    instance.expect("Definition 3.8 after leaves",
                  lambda: oracle.definition_38(net.tables(), net.departed))

    victims = rng.sample(net.member_ids(), crashes)
    by_type_before = dict(stats.count_by_type)
    with instance.phase("run_s"):
        recovery.fail_nodes(net, victims)
        report = recovery.recover_from_failures(net)
        tables = net.tables()
        audit_violations += len(
            checker.check(tables, tables.keys()).violations)
    # Crash-stop itself cannot fail; the recovery run fails when it
    # leaves any suspected entry unresolved.
    instance.attempted += 1
    instance.failed += report.unresolved > 0
    instance.expect("Definition 3.8 after recovery",
                  lambda: oracle.definition_38(net.tables(), net.departed))
    instance.expect("incremental audit", lambda: [] if not audit_violations
                  else [f"{audit_violations} violations seen while auditing"])

    passes = instance.passes(CHURN_VERIFY_PASSES)
    with instance.phase("verify_s", passes):
        for _ in range(passes):
            final = net.check_consistency()
    instance.expect("program verdict", lambda: [] if final.consistent else [
        f"{len(final.violations)} violations reported by the program"])

    instance.ops = m + leaves + crashes
    instance.msgs, instance.bytes = stats.total_messages, stats.total_bytes
    instance.join_vt = clock.durations
    recovery_msgs = {
        name: count - by_type_before.get(name, 0)
        for name, count in stats.count_by_type.items()
        if count - by_type_before.get(name, 0)
    }
    repair_finds = recovery_msgs.get("RepairFindMsg", 0)
    _sim_layer(instance, net)
    instance.layer.update({
        "leave.msgs": leave_msgs,
        "recovery.rounds": report.rounds,
        "recovery.repair_yield": (
            (report.repaired_entries + report.cleared_entries) / repair_finds
            if repair_finds else 0.0),
        "consistency.incremental.nodes_reverified": checker.nodes_reverified,
        "consistency.incremental.full_rescans": checker.full_rescans,
    })
    for name, count in recovery_msgs.items():
        instance.layer["recovery.msgs." + name] = count


def udp_loopback(seed: int, instance: Instance,
                 base_nodes: int = UDP_BASE_NODES,
                 concurrent: int = UDP_JOINERS,
                 rounds: int = UDP_ROUNDS) -> None:
    count = base_nodes + concurrent * rounds
    rng = random.Random(f"udp-{seed}")
    ids = IdSpace(UDP_BASE, UDP_DIGITS).random_unique_ids(count, rng)
    clock = JoinClock()
    runtime = None
    transports: List = []
    try:
        with instance.phase("setup_s"):
            runtime = AsyncioRuntime(time_scale=UDP_TIME_SCALE)
            stats = MessageStats()
            for _ in range(count):
                transport = DatagramTransport(
                    runtime, ("127.0.0.1", 0), stats=stats)
                transport.open()
                transports.append(transport)
            for a, transport in enumerate(transports):
                for b, peer in enumerate(transports):
                    if a != b:
                        transport.add_peer(ids[b], peer.local_addr)
            nodes = [ProtocolNode(ids[0], transports[0],
                                  status=NodeStatus.IN_SYSTEM,
                                  table=single_node_table(ids[0]))]
            for index in range(1, count):
                nodes.append(ProtocolNode(ids[index], transports[index],
                                          status=NodeStatus.COPYING))
            # The base network forms by joins one at a time.
            for index in range(1, base_nodes):
                runtime.schedule(0.0, nodes[index].begin_join,
                                 ids[rng.randrange(index)])
                runtime.run(wall_budget=30.0)
        instance.nodes = count
        base_msgs, base_bytes = stats.total_messages, stats.total_bytes
        joiners = nodes[base_nodes:]
        for node in joiners:
            node.on_phase = clock
        # Rounds of joins started together, each round timed as a
        # block of its own; a round's gateways are the members before it.
        for start in range(base_nodes, count, concurrent):
            with instance.phase("run_s"):
                for node in nodes[start:start + concurrent]:
                    runtime.schedule(0.0, node.begin_join,
                                     ids[rng.randrange(start)])
                runtime.run(wall_budget=60.0)
        # The path ``repro cluster`` verifies through: every table
        # crosses its wire form before the check.
        passes = instance.passes(UDP_VERIFY_PASSES)
        with instance.phase("verify_s", passes):
            for _ in range(passes):
                decoded = {node.node_id: table_from_wire(
                    table_to_wire(node.table)) for node in nodes}
                report = checker.check_consistency(decoded)
        counters = {key: sum(t.counters[key] for t in transports)
                    for key in transports[0].counters}
    finally:
        for transport in transports:
            transport.close()
        if runtime is not None:
            runtime.close()

    instance.ops = len(joiners)
    instance.msgs = stats.total_messages - base_msgs
    instance.bytes = stats.total_bytes - base_bytes
    instance.join_vt = clock.durations
    instance.count_joins({node.node_id: node.status for node in joiners})
    # Each protocol datagram is an operation; one the transport gave
    # up on failed.
    instance.attempted += stats.total_messages
    instance.failed += counters["gave_up"]
    instance.expect("program verdict", lambda: [] if report.consistent else [
        f"{len(report.violations)} violations reported by the program"])
    instance.expect("Definition 3.8 after wire round trip",
                  lambda: oracle.definition_38(decoded))
    instance.expect("Theorem 3", lambda: oracle.theorem3(
        [node.node_id for node in joiners], stats.sent_by, UDP_DIGITS))
    sends = stats.total_messages
    retransmits = counters["retransmits"]
    instance.layer.update({
        "network.msgs": sends,
        "network.kib": stats.total_bytes / 1024.0,
        "protocol.theorem3_max": max(
            stats.sent_by(n.node_id, "CpRstMsg")
            + stats.sent_by(n.node_id, "JoinWaitMsg") for n in joiners),
        "datagram.sent": counters["datagrams_sent"],
        "datagram.received": counters["datagrams_received"],
        "datagram.retransmits": retransmits,
        "datagram.duplicates_suppressed": counters["duplicates_suppressed"],
        "datagram.acks": counters["acks_received"],
        "datagram.first_send_ratio": sends / (sends + retransmits),
    })
    join_noti = [stats.sent_by(n.node_id, "JoinNotiMsg") for n in joiners]
    instance.layer["protocol.join_noti_mean"] = sum(join_noti) / len(join_noti)


WORKLOADS: Dict[str, Callable[[int, Instance], None]] = {
    "scale-audit": scale_audit,
    "fig15b-paper": fig15b_paper,
    "churn-recovery": churn_recovery,
    "udp-loopback": udp_loopback,
}

#: Instances per cycle, each from its own generator seed.  Pooling
#: evens out what one draw decides: an oracle network's join and audit
#: cost and a Figure 15(b) run's cost swing with the IDs and topology
#: drawn; a churn network's recovery costs a third more in about one
#: seed of five, when its crashes empty whole classes; and one UDP
#: instance has only 64 joins (a cycle pools 256).
INSTANCES: Dict[str, int] = {
    "scale-audit": 2,
    "fig15b-paper": 2,
    "churn-recovery": 5,
    "udp-loopback": 4,
}

#: Wall seconds of one cycle on the reference host (2-vCPU virtual
#: machine, interpreter start-up and the untimed checks included).  A
#: run's cycle count comes from ``--seconds`` and these figures alone,
#: never from how long its cycles actually take, so every run of a
#: workload draws its figures from the same number of cycles.
CYCLE_SECONDS: Dict[str, float] = {
    "scale-audit": 11.5,
    "fig15b-paper": 14.0,
    "churn-recovery": 29.0,
    "udp-loopback": 8.8,
}


def instance_seeds(name: str, seed: int) -> List[int]:
    """The generator seeds of one cycle of ``name`` under ``seed``."""
    count = INSTANCES[name]
    return [seed * count + index for index in range(count)]


def run_instance(name: str, seed: int, check: bool = True,
              spans=None) -> dict:
    instance = Instance(check=check, spans=spans)
    WORKLOADS[name](seed, instance)
    return instance.result()


__all__ = ["WORKLOADS", "Instance", "run_instance"]
