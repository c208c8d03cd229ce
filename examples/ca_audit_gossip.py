#!/usr/bin/env python3
"""CA accountability: catching an equivocating CA with consistency checking.

RITM keeps CAs accountable (§III "Consistency Checking", §V "Misbehaving
CA"): a CA that shows different dictionaries to different parts of the
system must sign two conflicting roots of the same size.  This wrapper runs
the registered ``ca-audit-gossip`` scenario: the CA revokes a bank's
certificate, the honest batch reaches one RA from the CDN origin while a
forged view reaches campus-ra through the US edges, and the same period's
gossip round produces portable cryptographic evidence of the equivocation.

Run:  python examples/ca_audit_gossip.py
Same as:  python -m repro run ca-audit-gossip
"""

import sys

from repro.scenarios import get, run_scenario


def main() -> int:
    report = run_scenario(get("ca-audit-gossip"))
    print(report.to_markdown())
    return 0 if report.all_checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
