"""Shared helpers: deterministic seeding, validation, text formatting."""
