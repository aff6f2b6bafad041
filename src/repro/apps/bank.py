"""Replicated bank: accounts with transfers.

A classic total-order-sensitive workload: a transfer only succeeds if the
source account holds sufficient funds at the moment the command is
*applied*, so replicas that disagree on the order of transfers disagree
on which ones succeed.  The invariant checked by tests: the sum of all
balances equals the sum of all deposits (money is conserved), and all
replicas agree on every balance.

Commands:

* ``("open", account, initial_balance)``
* ``("deposit", account, amount)``
* ``("transfer", src, dst, amount)`` — no-op if ``src`` lacks funds.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.base import Application
from repro.core.messages import AppMessage

__all__ = ["Bank"]


class Bank(Application):
    """Account ledger state machine."""

    def __init__(self) -> None:
        self.balances: Dict[str, int] = {}
        self.applied = 0
        self.rejected = 0

    def apply(self, message: AppMessage) -> Any:
        command = message.payload
        op = command[0]
        self.applied += 1
        if op == "open":
            _, account, initial = command
            if account not in self.balances:
                self.balances[account] = int(initial)
            return self.balances[account]
        if op == "deposit":
            _, account, amount = command
            self.balances[account] = \
                self.balances.get(account, 0) + int(amount)
            return self.balances[account]
        if op == "transfer":
            _, src, dst, amount = command
            amount = int(amount)
            if self.balances.get(src, 0) >= amount:
                self.balances[src] -= amount
                self.balances[dst] = self.balances.get(dst, 0) + amount
                return True
            self.rejected += 1
            return False
        raise ValueError(f"unknown bank command {op!r}")

    def snapshot(self) -> Any:
        """``(((account, balance), ...), applied, rejected)``."""
        return tuple(self.balances.items()), self.applied, self.rejected

    def restore(self, state: Any) -> None:
        if state is None:
            self.balances = {}
            self.applied = 0
            self.rejected = 0
        else:
            balances, applied, rejected = state
            self.balances = dict(balances)
            self.applied = int(applied)
            self.rejected = int(rejected)

    def total(self) -> int:
        """Total money in the bank (conserved by transfers)."""
        return sum(self.balances.values())
