"""Data ingestion, synthetic scenes, configuration, and the CLI."""
