#!/usr/bin/env python3
"""Survey how often circumcircles beat the general bounding circle.

Draws random two- and three-map plane systems, computes both constructions
where the circumcircle exists, and prints the fraction in which each wins
together with the radius ratio distribution.
"""

import argparse
import cmath
import math
import sys

import numpy as np

from ifsbound import (
    CircumcircleError,
    IfsSystem,
    Similitude2,
    circumcircle,
    general_bounding_ball,
)


def random_system(rng, n):
    maps = []
    for _ in range(n):
        lam = rng.uniform(0.1, 0.8)
        theta = rng.uniform(-math.pi, math.pi)
        p = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        maps.append(Similitude2(p=p, phi=lam * cmath.exp(1j * theta)))
    return IfsSystem(maps=tuple(maps))


def survey(n, count, seed):
    rng = np.random.default_rng(seed)
    ratios = []
    attempts = 0
    while len(ratios) < count:
        attempts += 1
        ifs = random_system(rng, n)
        try:
            circ = circumcircle(ifs)
        except CircumcircleError:
            continue
        if circ.ball.r == 0.0:
            continue
        gen = general_bounding_ball(ifs)
        ratios.append(circ.ball.r / gen.ball.r)
    ratios = np.array(ratios)
    exist_rate = count / attempts
    print(f"{n}-map systems ({count} samples, circumcircle exists in {exist_rate:.1%} of draws):")
    print(f"  circumcircle tighter: {np.mean(ratios < 1.0):.1%}")
    print(f"  general ball tighter: {np.mean(ratios > 1.0):.1%}")
    print(
        "  radius ratio circum/general: "
        f"median {np.median(ratios):.3f}, "
        f"p10 {np.percentile(ratios, 10):.3f}, "
        f"p90 {np.percentile(ratios, 90):.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for n in (2, 3):
        survey(n, args.count, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
