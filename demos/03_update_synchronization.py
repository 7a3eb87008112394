"""
Safe vs optimized update synchronization
========================================

After commanding a new marker, poses cannot be trusted until display and
detector agree again. The safe rule switches the detector at once and waits
out the worst case, max(capture-loop delay, confirmation delay), planned for
the longest transport from capture to pose (video plus pose delay). It
throws away every frame in between, and the old-marker frames captured just
before the command whose poses come out after the switch. If the transport
is constant, the detector update can instead be deferred to just before the
first new-marker pose, and only one frame is lost. Either way the wait
window alone decides which poses are distrusted. This demo measures both
across confirmation jitter.
"""

import numpy as np

from markersim.timing import (
    DelayModel,
    DelaySpec,
    evaluate_optimized_conditions,
    replay_update_frames,
    schedule_update,
    wait_window,
)

FRAME = 1 / 30

model = DelayModel(
    detector_update=DelaySpec.constant(0.005),
    display=DelaySpec.constant(0.030),
    display_confirm=DelaySpec.uniform(0.035, 0.060),
    video=DelaySpec.constant(0.005),
    pose=DelaySpec.constant(0.002),
)

print("optimized scheme applies (constant video and pose delays): "
      f"{evaluate_optimized_conditions(model)}")

rng = np.random.default_rng(1)
sample = model.sample(rng)
timeline = schedule_update(0.0, sample, FRAME)
lo, hi = wait_window(timeline, "safe")
safe_wait = hi - lo
lo, hi = wait_window(timeline, "optimized")
optimized_wait = hi - lo
print(f"\none sampled update: safe window {safe_wait * 1000:.0f} ms, "
      f"optimized window {optimized_wait * 1000:.0f} ms "
      f"({safe_wait / optimized_wait:.1f}x shorter)\n")

# Sweep many updates with jittered confirmation and random frame phase and
# count the frames each scheme invalidates.
updates = 2000
lost = {"safe": 0, "optimized": 0}
races = {"safe": 0, "optimized": 0}
for _ in range(updates):
    sample = model.sample(rng)
    timeline = schedule_update(float(rng.uniform(0, 10)), sample, FRAME)
    phase = float(rng.uniform(0, FRAME))
    for scheme in ("safe", "optimized"):
        outcomes = replay_update_frames(timeline, scheme, frame_phase=phase)
        lost[scheme] += sum(not o.stamp.valid for o in outcomes)
        races[scheme] += sum(o.mismatched for o in outcomes)
        # the non-negotiable property: a trusted pose is never a stale pose
        assert not any(o.stamp.valid and o.mismatched for o in outcomes)
# the optimized window distrusts exactly the frames the update corrupts
assert lost["optimized"] == races["optimized"] == updates

print(f"over {updates} updates (random frame phase, jittered confirmation):")
print(f"  wrong-parameter races, safe scheme:      {races['safe']}")
print(f"  wrong-parameter races, optimized scheme: {races['optimized']}")
print(f"  frames lost, safe scheme:      {lost['safe']}  "
      f"({lost['safe'] / updates:.2f} per update)")
print(f"  frames lost, optimized scheme: {lost['optimized']}  "
      f"({lost['optimized'] / updates:.2f} per update)")
print("  trusted-but-stale poses: 0 in both schemes")
