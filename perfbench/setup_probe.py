"""Do the CLI's set-up for one config and report when it was done.

usage: python3 perfbench/setup_probe.py CONFIG SEED

Imports sgdlab.cli, validates the config and builds its objective and
oracle, as `sgdlab <experiment> --config CONFIG --seed SEED` does before
its first step, then prints time.monotonic().  The parent subtracts the
monotonic time at which it started this interpreter.
"""
import sys
import time

import sgdlab.cli as cli


def main(config: str, seed: str) -> None:
    cfg = cli.validate_config(config, overrides={"seed": int(seed)})
    cli.build_oracle(cfg, cli.build_objective(cfg))
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
