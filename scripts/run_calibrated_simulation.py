#!/usr/bin/env python3
"""Simulate a teleportation campaign through the calibrated noise channel.

Runs all six input states, reports the exact per-outcome fidelities, and
benchmarks the whole channel with process tomography on the sampled QST
reconstructions.
"""

import argparse

import numpy as np

from spp_teleport import channel, protocol, tomo
from spp_teleport.qcore import MixedState


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-spp", action="store_true",
                        help="include the plasmonic element in the channel")
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ch = channel.calibrated_channel(with_spp=args.with_spp)
    print(f"channel: visibility={ch.werner_visibility:.4f} "
          f"extra_depol={ch.depolarizing_extra:.4f} "
          f"transmittance={ch.transmittance:g}")

    records, estimates = protocol.run_campaign(ch, protocol.INPUT_LABELS, args.shots, args.seed)
    print("\nexact fidelity per (outcome, input):")
    print("        " + "".join(f"{l:>8}" for l in protocol.INPUT_LABELS))
    for outcome in protocol.OUTCOMES:
        row = [rec.fidelity for rec in records if rec.outcome is outcome]
        print(f"{outcome.label:>8}" + "".join(f"{f:8.4f}" for f in row))
    print(f"mean exact fidelity: {np.mean([rec.fidelity for rec in records]):.4f}")

    pairs = []
    for label in tomo.QPT_INPUT_LABELS:
        rho_in = protocol.prepare_input(label).projector()
        avg = np.mean([rho.matrix for rec, rho in zip(records, estimates) if rec.input == label], axis=0)
        pairs.append((rho_in, MixedState(avg)))
    chi = tomo.qpt_reconstruct(pairs)
    f_proc = tomo.process_fidelity(chi, tomo.chi_identity())
    print(f"process fidelity (QPT on sampled tomography): {f_proc:.4f}")


if __name__ == "__main__":
    main()
