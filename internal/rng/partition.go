package rng

// Partition derives independent, deterministic RNG streams from a single
// master seed, keyed by a (kind, index) pair rather than by derivation
// order. Split produces streams that depend on how many times the parent
// was split before — fine inside one goroutine, but useless for a sharded
// engine where S shards must each obtain their stream without coordinating.
// A Partition stream depends only on (master, kind, index), so shard s can
// construct its streams locally and the result is identical for any worker
// count or scheduling of the shards. This is the subsystem/instance
// partitioned-RNG idiom: one keyed stream per subsystem (kind) and per
// shard (index).
//
// Two distinct keys yield (with overwhelming probability) uncorrelated
// xoshiro256** streams: the key is folded through two full splitmix64
// rounds per word, the same construction New uses for its state expansion.
type Partition struct {
	master uint64
}

// StreamKind labels the subsystem a derived stream feeds. The numeric
// values are part of the determinism contract: changing them reshuffles
// every sharded simulation.
type StreamKind uint64

const (
	// StreamPattern seeds workload-pattern construction (one per run).
	StreamPattern StreamKind = iota + 1
	// StreamBalancer seeds balancer construction (one per run).
	StreamBalancer
	// StreamOrder seeds a shard's per-tick processor-order shuffles.
	StreamOrder
	// StreamStep seeds a shard's per-processor step randomness: workload
	// action draws and processor-local balancer choices.
	StreamStep
	// StreamOp seeds one deferred balancing operation. The index is a hash
	// of (tick, operation rank), so every operation owns a private stream
	// regardless of which worker resolves it.
	StreamOp
	// StreamSettle seeds the serial settlement pass at the tick barrier.
	StreamSettle
)

// NewPartition returns a Partition over the given master seed.
func NewPartition(master uint64) Partition {
	return Partition{master: master}
}

// Seed returns the derived seed word for (kind, index).
func (p Partition) Seed(kind StreamKind, index uint64) uint64 {
	return Mix64(Mix64(p.master, uint64(kind)), index)
}

// Stream returns a fresh generator for (kind, index). Repeated calls with
// the same key return generators with identical state.
func (p Partition) Stream(kind StreamKind, index uint64) *RNG {
	return New(p.Seed(kind, index))
}

// OpSeed returns the seed of one deferred balancing operation's private
// stream: operation rank k at tick t. The two coordinates are hashed
// separately so (t, k) pairs cannot alias across ticks with different
// operation counts. The sharded engine reseeds a per-operation value RNG
// with it (RNG.Reseed) rather than allocating one per operation.
func (p Partition) OpSeed(tick, k uint64) uint64 {
	return Mix64(p.Seed(StreamOp, tick), k)
}
