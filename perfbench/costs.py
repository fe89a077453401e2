"""Reproduce the two costs the workloads are sized around.

    python3 perfbench/costs.py recovery [--seed N]
    python3 perfbench/costs.py retransmits [--seed N]

``recovery``: crash recovery sends O(n x table size) messages per
round whatever the number of crashes, and at b=16 its TTL escalation
floods.  Runs 20 crashes in a 1000-node b=4 network, then 10 crashes
in a 300-node b=16 network (about a minute of CPU), and prints the
recovery's messages by type and its CPU time.

``retransmits``: the datagram transport's retransmit timeout is fixed
at 40 protocol units, and measured round trips feed only telemetry.
Runs 100 transports on one runtime (36 joined one by one, then 64 at
once) and prints protocol messages against retransmits.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from workloads import Instance, churn_recovery, udp_loopback  # noqa: E402


def recovery(seed: int) -> None:
    for label, kwargs in (
        ("b=4: 20 crashes in 1000 nodes",
         dict(n=900, m=100, base=4, digits=6, leaves=0, crashes=20)),
        ("b=16: 10 crashes in 300 nodes",
         dict(n=250, m=50, base=16, digits=8, leaves=0, crashes=10)),
    ):
        instance = Instance(check=False)
        churn_recovery(seed, instance, **kwargs)
        msgs = {k[len("recovery.msgs."):]: v for k, v in instance.layer.items()
                if k.startswith("recovery.msgs.")}
        print(f"{label}: {instance.layer['recovery.rounds']} rounds, "
              f"run phase {sum(instance.seconds['run_s']):.1f} CPU-s, "
              f"recovery messages {msgs}")


def retransmits(seed: int) -> None:
    instance = Instance(check=False)
    udp_loopback(seed, instance, base_nodes=36, concurrent=64, rounds=1)
    layer = instance.layer
    print(f"64 concurrent UDP joins: {instance.msgs} protocol messages, "
          f"{layer['datagram.retransmits']} retransmits, "
          f"first-send ratio {layer['datagram.first_send_ratio']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cost", choices=("recovery", "retransmits"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    {"recovery": recovery, "retransmits": retransmits}[args.cost](args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
