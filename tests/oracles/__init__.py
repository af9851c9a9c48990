"""Reference implementations the equivalence tests compare production code to.

Each oracle is the simple, slow form of a production path: the read-at-a-time
sweep loop, the pure-Python DTW accumulation, the pre-registry scenario
factories, the read-at-a-time replay of the streaming ingest policies, and
the meshgrid BackPos scoring loop.
None of them is imported by ``src/``.
"""
