"""Set-up probe: import domcount in a fresh interpreter, then compile the
column tables of every (family, width) given as FAMILY:WIDTH arguments by
one 1-row public call each.  The benchmark times this whole process.

    PYTHONPATH=src python3 perfbench/warmup.py grid:9 torus:8
"""

import sys

from domcount import engine

for arg in sys.argv[1:]:
    family, width = arg.split(":")
    engine.count_series(family, int(width), 1)
