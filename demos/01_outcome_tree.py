"""Walk the outcome tree: four branch probabilities in, p(doom) out.

The tree has one junction per question: does transformative AI arrive within
the horizon, does it take over decision making, is it aligned from the start,
and does an aligned takeover stay corrigible.  Two branches end in doom.
"""

from tai_welfare import TaxonomyProbs, leaf_distribution, p_doom

# a deliberately mid-range assessment (75-year horizon)
probs = TaxonomyProbs(p1=0.9, p2=0.8, p3=0.3, p4=0.3)

print(f"branch probabilities: p1={probs.p1} p2={probs.p2} p3={probs.p3} p4={probs.p4}")
print(f"p(doom) = {p_doom(probs):.4f}")
print()

leaves = leaf_distribution(probs)
print("terminal outcomes:")
for name in ("no_tai", "tai_no_takeover", "cornucopia", "doom_immediate", "doom_delayed"):
    print(f"  {name:16s} {getattr(leaves, name):.4f}")
print(f"  survival total   {leaves.survival:.4f}")
print()

# sensitivity: halving the misalignment probability
for p3 in (0.3, 0.15, 0.05, 0.0):
    print(f"p3 = {p3:4.2f}  ->  p(doom) = {p_doom(TaxonomyProbs(0.9, 0.8, p3, 0.3)):.4f}")
