"""Time-to-clustering benchmark; ``run.py`` is the entry point."""
