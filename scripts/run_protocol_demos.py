#!/usr/bin/env python3
"""Run each protocol once through ``ebitnet simulate`` and print its checks.

Usage: python scripts/run_protocol_demos.py [--seed N] [--n N]

The n-party protocols run at ``--n``; ps and ps-cp take the nearest larger
party count of the parity they need.  Output files go to a temporary
directory and are discarded.
"""

import argparse
import tempfile

from ebitnet import cli


def party_count(protocol: str, n: int) -> int:
    """The smallest valid --n for ``protocol`` that is at least ``n``."""
    least, parity = cli._N_RULES.get(protocol, (1, None))
    n = max(n, least)
    return n + 1 if parity is not None and n % 2 != parity else n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=4, help="party count for the n-party protocols")
    args = ap.parse_args()

    failed = []
    with tempfile.TemporaryDirectory() as out:
        for protocol in cli.PROTOCOLS:
            rc = cli.main(["simulate", protocol, "--seed", str(args.seed),
                           "--n", str(party_count(protocol, args.n)), "--output", out])
            if rc:
                failed.append(protocol)
    if failed:
        raise SystemExit(f"failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
