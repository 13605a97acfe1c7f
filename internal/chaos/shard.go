package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"evmatching/internal/stream"
)

// DefaultShardStallFor is the shard straggler delay when ShardConfig.StallFor
// is zero.
const DefaultShardStallFor = 2 * time.Millisecond

// ShardConfig sets the per-message probabilities of each shard fault class.
// Probabilities are in [0, 1] and independent; the zero ShardConfig injects
// nothing.
type ShardConfig struct {
	// Kill is the chance a shard windower dies before processing a message —
	// its runner reports the death and the router must redispatch its cell
	// range to a replacement replaying the shard's journal.
	Kill float64
	// Stall is the chance a message's processing is delayed by StallFor — a
	// straggler shard that must not be mistaken for a dead one.
	Stall float64
	// StallFor is the straggler delay; 0 means DefaultShardStallFor.
	StallFor time.Duration
}

// validate rejects out-of-range parameters.
func (c *ShardConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Kill", c.Kill},
		{"Stall", c.Stall},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: probability %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if c.StallFor < 0 {
		return fmt.Errorf("chaos: negative fault-shape parameter")
	}
	return nil
}

// ShardInjector is a seeded stream.ShardFaultPlan. Like Injector, it is
// stateless: every decision is a pure hash of (seed, shard, incarnation,
// step), so a schedule replays identically regardless of interleaving — and
// because the incarnation is part of the coordinates, a redispatched
// replacement replaying the same journal draws fresh faults instead of dying
// deterministically at the same message forever.
type ShardInjector struct {
	seed int64
	cfg  ShardConfig
}

var _ stream.ShardFaultPlan = (*ShardInjector)(nil)

// NewShardInjector builds an injector whose decisions are fully determined
// by seed and cfg.
func NewShardInjector(seed int64, cfg ShardConfig) (*ShardInjector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StallFor == 0 {
		cfg.StallFor = DefaultShardStallFor
	}
	return &ShardInjector{seed: seed, cfg: cfg}, nil
}

// ShardFault implements stream.ShardFaultPlan.
func (in *ShardInjector) ShardFault(shard, incarnation, step int) stream.ShardFault {
	var f stream.ShardFault
	if in.cfg.Kill > 0 && in.frac("kill", shard, incarnation, step) < in.cfg.Kill {
		f.Kill = true
	}
	if in.cfg.Stall > 0 && in.frac("stall", shard, incarnation, step) < in.cfg.Stall {
		f.Stall = in.cfg.StallFor
	}
	return f
}

// frac hashes the decision coordinates into a uniform [0, 1) fraction. The
// FNV sum is passed through a 64-bit finalizer: over the densely sequential
// (shard, step) coordinates this injector sees, raw FNV output clusters and
// starves small probabilities, whereas the mixed bits pass a uniformity
// check at p = 0.002.
func (in *ShardInjector) frac(salt string, shard, incarnation, step int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d|%d", in.seed, salt, shard, incarnation, step)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(uint64(1)<<53)
}
