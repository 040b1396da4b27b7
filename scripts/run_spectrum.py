#!/usr/bin/env python3
"""Quasienergy spectra at the two benchmark drive strengths.

Writes one CSV per point (k, Re/Im of the four branches, Krein norms) and
prints a stability summary.  The strong-drive point is dynamically stable
with W^S = 2; the intermediate point is parametrically unstable.
"""

import argparse
import csv
import pathlib

from floqbog.floquet import DEFAULT_STEPS, classify_arrays, kgrid_solve
from floqbog.model import ModelParams
from floqbog.topology import symplectic_winding

POINTS = {
    "strong": ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=11.0, mu=-5.0, omega=5.2),
    "intermediate": ModelParams(nu0=1.5, nu0p=0.0, nu1=3.0, nu1p=6.0, mu=-5.0, omega=5.2),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nk", type=int, default=256)
    ap.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, params in POINTS.items():
        ks, eps, cnorm, _ = kgrid_solve(params, args.nk, args.steps)
        codes = classify_arrays(eps, cnorm, params.omega, 1e-8, 1e-6 * params.omega)
        verdict = ("StronglyStable", "MarginallyStable", "Unstable")[int(codes.max())]
        max_im = float(eps.imag.max())
        line = f"{name:13s} nu1p={params.nu1p:5.1f}  {verdict:15s} max Im = {max_im:.3e}"
        if verdict == "StronglyStable":
            ws = symplectic_winding(params, nk=args.nk, steps=args.steps)
            line += f"  W^S = {ws.ws}"
        print(line)

        path = args.outdir / f"spectrum_{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            header = ["k"]
            for b in range(eps.shape[1]):
                header += [f"re_eps{b}", f"im_eps{b}", f"cnorm{b}"]
            w.writerow(header)
            for i, k in enumerate(ks):
                row = [repr(float(k))]
                for b in range(eps.shape[1]):
                    row += [repr(float(eps[i, b].real)), repr(float(eps[i, b].imag)),
                            repr(int(cnorm[i, b]))]
                w.writerow(row)
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
