"""``python -m sensoraudit``: the command-line interface (``sensoraudit.cli``)."""

from sensoraudit.cli import main

raise SystemExit(main())
