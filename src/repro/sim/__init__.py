"""Simulation harness: simulator, sweep engine, result store and tables."""
