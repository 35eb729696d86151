"""Deterministic simulation harness: scenario runner, cost metering,
adversary suite, and the command-line interface."""
