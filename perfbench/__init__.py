"""The repo benchmark: seeded end-to-end workloads and a layer-timed traced run."""
