"""``python -m thermoshift``: the ``thermoshift`` console script."""

import sys

from .cli import main

sys.exit(main())
