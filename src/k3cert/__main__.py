"""``python -m k3cert``: runs :func:`k3cert.cli.main` and exits with its code."""
from .cli import main

raise SystemExit(main())
