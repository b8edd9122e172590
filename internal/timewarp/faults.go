package timewarp

// FaultConfig injects kernel misbehaviours on purpose. It exists for one
// reason: the differential fuzz harness must be able to prove it would
// catch a real kernel regression, so its self-tests run with a fault
// enabled and assert that the sequential-vs-Time-Warp comparison (or an
// invariant check) fails and replays from the same seed. Production and
// ordinary test runs leave Config.Faults nil.
type FaultConfig struct {
	// CorruptEveryN flips every Nth changed value a cluster ships, in the
	// frame that carries it (0 disables). The receiver then computes with a wrong input
	// the sender never saw — a silent data-corruption bug.
	CorruptEveryN uint64
	// SkipSenderWait makes every cluster run its next cycle without
	// waiting for its senders' watermarks, on whatever its links hold —
	// the broken-synchronisation bug. A frame that arrives for a cycle
	// already executed then fails the run as a straggler.
	SkipSenderWait bool
}
