"""One set-up measurement in a fresh interpreter.

Usage: python3 bench/setup_probe.py '<json argv>'

Times, on the kernel-free clock of hostspeed.Sampler, the work a command
does before it computes, through the command line's own functions:
importing char3iso.cli, parsing the arguments, and building the field, the
curve and the seed (or, for identify, parsing the map). Prints one JSON
object with the net time and its host-speed scale.
"""

from __future__ import annotations

import json
import os
import sys

import hostspeed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    argv = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    sampler = hostspeed.Sampler()
    sampler.between_jobs()
    mark = len(sampler.samples)
    start = sampler.clock()
    sampler.arm()
    from char3iso import cli

    args = cli.build_parser().parse_args(argv)
    job = cli._job_from_args(args)
    if args.cmd == "identify":
        cli.parse_rational_function(args.fx, job.field)
        cli.parse_rational_function(args.fy_factor, job.field)
    else:
        cli._seed_from_args(args, job.field)
    sampler.disarm()
    net = sampler.clock() - start
    scale = sampler.scale_since(mark)
    sampler.close()
    module = sys.modules["char3iso"].__file__
    if not module.startswith(SRC + os.sep):
        raise SystemExit(f"char3iso imported from {module}, not from {SRC}")
    print(json.dumps({"net_s": net, "scale": scale}))


if __name__ == "__main__":
    main()
