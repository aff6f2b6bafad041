"""Transport rule (WAL family).

The paper's logging discipline (Sections 4.2 and 5.1–5.3) is that state
a message depends on reaches stable storage before the message leaves.
The runtime holds it by construction: a node's turn is one write
barrier, and the frames the turn sends leave only after it commits
(:meth:`repro.runtime.node.Node._turn`).  That holds for every frame
that goes through the node's :class:`~repro.transport.endpoint.Endpoint`,
which holds a turn's sends until the commit.

**WAL002** keeps protocol code on that path: a send whose receiver does
not end in the node's endpoint bypasses it.  What counts as a transport
send is :func:`repro.analysis.sites.classify`'s definition, shared with
every other rule family.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.registry import PROTOCOL_SCOPE, Rule
from repro.analysis.sites import sites_in

__all__ = ["WAL_RULES"]


class DirectTransportSendRule(Rule):
    """WAL002: protocol code must send through its Endpoint component."""

    id = "WAL002"
    name = "no-raw-transport-send"
    summary = ("a protocol module calls send/multisend directly on a "
               "transport medium instead of going through its Endpoint")
    rationale = ("The endpoint sits above whatever TransportMedium the "
                 "harness wired in, and it enforces three things the raw "
                 "medium does not: a send from a down node raises "
                 "ProcessDown instead of leaving a crashed process, a "
                 "multisend reaches only the installed view's members, "
                 "and a send inside a turn waits for the turn's write "
                 "barrier to commit (Section 4.2's log-before-send).  A "
                 "protocol that grabs the raw medium "
                 "(node.network.send(...)) sends after its own crash, to "
                 "nodes outside its view, and before what it depends on "
                 "is logged, which the paper's model does not allow.")
    scope = PROTOCOL_SCOPE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for site in sites_in(ctx.tree):
            # Narrower than the shared notion of a send: one that ends
            # in the node's endpoint is the sanctioned path.
            if site.kind != "send" or "endpoint" in site.receiver[-1]:
                continue
            path = ".".join(site.receiver + (site.op,))
            yield ctx.finding(
                self.id, site.call,
                f"direct {path}(...) bypasses the endpoint (its down-node "
                f"check, view scoping and output commit); send through "
                f"the node's Endpoint component instead")


WAL_RULES = (DirectTransportSendRule(),)
