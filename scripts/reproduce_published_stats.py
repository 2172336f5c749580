#!/usr/bin/env python3
"""Recompute the headline statistics from the bundled coincidence counts.

Prints the CHSH S values, the 4x6 teleportation fidelity tables and their
means, and the sigma violations over the classical bounds.
"""

import argparse

from spp_teleport import counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mc-trials", type=int, default=1000,
                        help="Monte Carlo resampling trials for error bars")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.mc_trials < 100:
        parser.exit(2, f"{parser.prog}: error: --mc-trials must be >= 100, got {args.mc_trials}\n")
    if args.seed < 0:
        parser.exit(2, f"{parser.prog}: error: --seed must be >= 0, got {args.seed}\n")

    for block in ("without_spp", "with_spp"):
        tag = block.replace("_", " ")
        table = counts.load_bundled("chsh", block)
        print(f"CHSH {tag}: |S| = {counts.chsh_s(table):.4f}")

    for block in ("without_spp", "with_spp"):
        tag = block.replace("_", " ")
        result = counts.fidelity_table(counts.load_bundled("fidelity", block),
                                       mc_trials=args.mc_trials, seed=args.seed)
        print(f"\nstate fidelities {tag} (%):")
        header = "        " + "".join(f"{l:>8}" for l in result.inputs)
        print(header)
        for outcome, row in zip(result.outcomes, result.fidelities):
            print(f"{outcome:>8}" + "".join(f"{100 * f:8.2f}" for f in row))
        sigma = counts.sigma_violation(result.mean,
                                       counts.CLASSICAL_STATE_FIDELITY_BOUND,
                                       result.mean_std)
        print(f"mean = {100 * result.mean:.2f} +- {100 * result.mean_std:.2f} %"
              f"  ({sigma:.0f} sigma above 2/3)")


if __name__ == "__main__":
    main()
