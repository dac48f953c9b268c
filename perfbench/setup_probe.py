"""Time one set-up in a fresh interpreter and print the seconds it took.

    python3 perfbench/setup_probe.py SRC_DIR manifest=PATH ... pieces=PATH

The timed part imports evoloop and loads each input with the program's
own loader (load_manifest for manifests, load_piece_table for piece
tables). Nothing else is imported first, so the imports the program
pulls in are counted too.
"""

import sys
import time


def main(argv) -> int:
    src, specs = argv[0], [arg.split("=", 1) for arg in argv[1:]]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import evoloop.cli as cli

    loaders = {"manifest": cli.load_manifest, "pieces": cli.load_piece_table}
    for kind, path in specs:
        loaders[kind](path)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
