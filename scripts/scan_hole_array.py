#!/usr/bin/env python3
"""Scan hole-array periods and report the SPP resonance per lattice mode.

Useful for picking a geometry whose substrate-side resonance lands on the
source wavelength.
"""

import argparse

import numpy as np

from spp_teleport import channel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--period-start", type=float, default=600.0)
    parser.add_argument("--period-stop", type=float, default=800.0)
    parser.add_argument("--period-step", type=float, default=25.0)
    parser.add_argument("--hole-diameter", type=float, default=200.0)
    parser.add_argument("--eps-substrate", type=float, default=2.25)
    parser.add_argument("--modes", default="1,1;1,0",
                        help="semicolon-separated m1,m2 pairs")
    args = parser.parse_args()
    if args.period_step <= 0:
        parser.exit(2, f"{parser.prog}: error: --period-step must be > 0, got {args.period_step:g}\n")

    modes = []
    for part in args.modes.split(";"):
        try:
            m1, m2 = (int(x) for x in part.split(","))
        except ValueError:
            parser.exit(2, f"{parser.prog}: error: bad mode {part!r} in --modes, expected 'm1,m2'\n")
        modes.append((m1, m2))

    table = channel.gold_dielectric_table()
    periods = np.arange(args.period_start, args.period_stop + args.period_step / 2, args.period_step)
    try:  # every geometry is checked before the table starts
        geoms = [[channel.HoleArrayGeometry(period_nm=float(period), hole_diameter_nm=args.hole_diameter,
                                            mode=mode, eps_substrate=args.eps_substrate, metal=table)
                  for mode in modes] for period in periods]
    except channel.ChannelParameterError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(f"{'period_nm':>10} {'mode':>7} {'lambda_nm':>10} {'k_spp (rad/nm)':>15}")
    for period, row in zip(periods, geoms):
        for mode, geom in zip(modes, row):
            try:
                lam = channel.resonance_wavelength(geom, interface="substrate")
            except channel.ResonanceSolveError as exc:
                print(f"{period:10.0f} {str(mode):>7} {'--':>10}  ({exc})")
                continue
            k = np.linalg.norm(channel.dispersion_match(geom, (0.0, 0.0)))
            print(f"{period:10.0f} {str(mode):>7} {lam:10.2f} {k:15.5f}")


if __name__ == "__main__":
    main()
