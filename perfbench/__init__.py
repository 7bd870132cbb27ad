"""Layer-attributed end-to-end benchmark of repro (see README.md)."""
