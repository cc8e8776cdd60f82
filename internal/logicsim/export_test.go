package logicsim

// DivergedSlots exposes to the external (logicsim_test) tests the number
// of slots the wide simulator's last divergence walk marked diverged.
func DivergedSlots(s *WideSim) int { return len(s.diverged) }
