"""Reference implementations the equivalence tests compare production code to.

Each oracle is the simple, slow form of a production path: the read-at-a-time
sweep loop (with the slot-by-slot ALOHA round and the read-at-a-time
channel observation), the pure-Python DTW accumulation and the per-pair
segment distance, the pre-registry scenario
factories, the read-at-a-time replay of the streaming ingest policies, the
meshgrid BackPos scoring loop, and the per-window ``np.polyfit`` V-zone fit.
None of them is imported by ``src/``.
"""
