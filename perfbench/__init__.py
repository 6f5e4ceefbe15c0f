"""End-to-end decision-path benchmark (see ``perfbench/README.md``)."""
