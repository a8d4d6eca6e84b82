"""Set-up probe: import digrow and parse one verb's inputs, with no saturation.

    python3 perfbench/setup_probe.py FILE.dpres [EXPRESSION]
"""

import sys

from digrow.cli import load_presentation, parse_element

pres = load_presentation(sys.argv[1])
if len(sys.argv) > 2:
    parse_element(sys.argv[2], pres.alphabet, pres.field)
