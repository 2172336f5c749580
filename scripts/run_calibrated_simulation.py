#!/usr/bin/env python3
"""Simulate a teleportation campaign through the calibrated noise channel.

Runs all six input states, reports the exact per-outcome fidelities, and
benchmarks the whole channel with process tomography on the sampled QST
reconstructions.
"""

import argparse
import sys

import numpy as np

from spp_teleport import channel, protocol, tomo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-spp", action="store_true",
                        help="include the plasmonic element in the channel")
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.shots < 1:
        parser.exit(2, f"{parser.prog}: error: --shots must be >= 1, got {args.shots}\n")
    if args.shots > 2**63 - 1:  # shots are counted in int64
        parser.exit(2, f"{parser.prog}: error: --shots must be <= 2**63 - 1, got {args.shots}\n")
    if args.seed < 0:
        parser.exit(2, f"{parser.prog}: error: --seed must be >= 0, got {args.seed}\n")

    ch = channel.calibrated_channel(with_spp=args.with_spp)
    print(f"channel: visibility={ch.werner_visibility:.4f} "
          f"extra_depol={ch.depolarizing_extra:.4f} "
          f"transmittance={ch.transmittance:g}")

    campaign = protocol.Campaign.run(ch, protocol.INPUT_LABELS, args.shots, args.seed)
    print("\nexact fidelity per (outcome, input):")
    print("        " + "".join(f"{l:>8}" for l in protocol.INPUT_LABELS))
    for k, outcome in enumerate(protocol.OUTCOMES):
        print(f"{outcome.label:>8}" + "".join(f"{f:8.4f}" for f in campaign.fidelities[:, k]))
    print(f"mean exact fidelity: {np.mean(campaign.fidelities):.4f}")

    try:
        chi = campaign.process_matrix()
    except protocol.NoEstimateError as exc:
        sys.exit(f"no process tomography: {exc}")
    f_proc = tomo.process_fidelity(chi)
    print(f"process fidelity (QPT on sampled tomography): {f_proc:.4f}")


if __name__ == "__main__":
    main()
