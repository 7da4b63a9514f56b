"""Greedy capture's radius sweep, event by event, on its worst-case family.

Two mirrored lines at infinite walking distance: a crowd of three agents
sits right at the far stops, a fourth straggler just inside their opening
radius.  The far stops fill their balls first and the four inner agents are
left stranded at a cost ratio close to 2 + sqrt(5).
"""

import math

import fairstops as fs

inst = fs.generate("gc-jr-tight", eps=0.01)
solution, trace = fs.gc_trsp(inst)

print("sweep events (radius, opened, endpoints captured):")
for ev in trace.events:
    opened = ",".join(inst.candidate_labels[c] for c in ev.opened) or "-"
    print(f"  r={ev.radius:8.5f}  opened={opened:4s}  endpoints={list(ev.endpoints)}")

print("\nselected:", " ".join(inst.candidate_labels[c] for c in solution))

report = fs.jr_ratio(inst, solution)
print(f"tight pair-representation factor: {report.factor:.5f}"
      f"  (worst case is 2+sqrt5 = {2 + math.sqrt(5):.5f})")
print("attained by coalition", report.witness.coalition, "deviating to",
      tuple(inst.candidate_labels[c] for c in report.witness.deviation))

# gc_trsp is greedy capture run as plain clustering over the endpoint
# multiset, so the endpoint ids in the trace are the datapoint ids there.
clustering = fs.induce_clustering(inst)
print(f"\ninduced clustering: {clustering.n} datapoints (the endpoints), "
      f"{clustering.m} centers, k={clustering.k}")
