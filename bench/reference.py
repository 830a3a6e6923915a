"""A fixed slice of work that calls no flmech code, to gauge the host's speed.

The CPUs of a shared host run slower and faster for minutes at a time.
`run.py` times `reference()` between unit calls and divides the workload's
time by the reference's, which takes the host's speed out of `wall_ref`.
The work is the kind a simulation round does most: integer and dict work
in the interpreter, and sorting a list of floats with a key function.
"""

_FLOATS = [((i * 7919) % 10007) / 10007.0 for i in range(4000)]


def reference() -> int:
    """About 1 ms of interpreter work on a 2.1 GHz Xeon vCPU; returns a checksum."""
    total, table = 0, {}
    for i in range(2000):
        total += i * i % 7
        table[i % 500] = total
    order = sorted(_FLOATS, key=lambda x: -x)
    return total + len(order) + len(table)
