"""Layer-by-layer host-wall benchmark; see README.md and run.py."""
