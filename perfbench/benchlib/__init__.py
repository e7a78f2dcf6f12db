"""The repository benchmark's library: statistics, tracing, workloads, checks."""
