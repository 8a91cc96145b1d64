"""``python -m mnseries``: the command-line interface, without an installed script."""

from .cli import main

raise SystemExit(main())
