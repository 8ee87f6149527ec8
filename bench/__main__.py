"""``python -m bench`` == ``python3 bench/run.py``."""

import sys

from bench.run import main

sys.exit(main())
