package par

import "sync"

// arenaShardCap bounds each rank's private free list. Protocols with
// balanced envelope flows (halo exchange, pipelined sweeps on interior
// ranks) never come near it; unbalanced flows (request/reply protocols,
// where requesters' envelopes pile up on servers) spill the excess to the
// shared overflow list, where the starved side reclaims them.
const arenaShardCap = 64

// arenaShard is one rank's private free list, padded so adjacent shards in
// the contiguous shard array never share a cache line (a Put on rank r must
// not invalidate rank r+1's list head).
type arenaShard[T any] struct {
	free []*T
	_    [64 - 24%64]byte
}

// Arena is a per-rank sharded free list of pointer message envelopes for
// hot-path reuse under true parallelism (GOMAXPROCS > 1). Payloads cross
// ranks by reference, so an envelope is recycled by the side that has
// finished reading it: the sender Gets one, fills it and hands it to Send;
// the receiver copies the contents out and Puts it into its OWN shard.
// Pointer envelopes box into the `any` message slot without allocating, so a
// protocol whose envelopes own their buffers (reused via append(x[:0])) runs
// alloc-free at steady state. Each rank owns one shard, touched only by that
// rank's goroutine, so the fast path — Get from and Put to your own shard —
// is lock-free and immune to the per-P cache misses that make sync.Pool's
// reuse probabilistic on multicore hosts. When a flow is unbalanced, full
// shards spill to a mutex-guarded overflow list that empty shards refill
// from, so steady-state reuse survives arbitrarily lopsided traffic at the
// cost of occasional (never per-message) lock operations. An envelope that is
// never received — dropped by fault injection, stranded by a crash — is the
// GC's: not every Get need be matched by a Put.
//
// An Arena changes host allocation behavior only: virtual clocks, message
// bytes and arrival times never depend on where an envelope came from. Get
// and Put for rank i must be called only from rank i's goroutine.
type Arena[T any] struct {
	shards []arenaShard[T]

	ovMu sync.Mutex
	ov   []*T
}

// Init sizes the arena for an n-rank world, while no world runs on it. On an
// arena that has served another world it keeps the cached envelopes: those of
// ranks beyond n wait for a world that has such ranks.
func (a *Arena[T]) Init(n int) { a.shards = Resized(a.shards, n) }

// Resized returns s with length n and everything its capacity already held:
// elements that a shorter length hid come back as they were left, elements
// beyond the old capacity are zero. It is how a buffer indexed by rank passes
// from one world to the next of another size.
func Resized[T any](s []T, n int) []T {
	if s = s[:cap(s)]; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// Get returns a recycled envelope for the given rank, refilling from the
// shared overflow list (one lock op) before allocating a fresh one. Internal
// buffers keep their capacity; callers must reset lengths before filling.
func (a *Arena[T]) Get(rank int) *T {
	sh := &a.shards[rank]
	if n := len(sh.free); n > 0 {
		x := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return x
	}
	if x := a.getOverflow(); x != nil {
		return x
	}
	return new(T)
}

// getOverflow pops one envelope from the shared overflow list. Kept out of
// Get's inlinable fast path.
func (a *Arena[T]) getOverflow() *T {
	a.ovMu.Lock()
	defer a.ovMu.Unlock()
	n := len(a.ov)
	if n == 0 {
		return nil
	}
	x := a.ov[n-1]
	a.ov[n-1] = nil
	a.ov = a.ov[:n-1]
	return x
}

// Put returns an envelope for reuse by the given rank (the caller's own rank
// — for a received envelope, the receiver's, not the sender's). The caller
// must not touch it afterwards.
func (a *Arena[T]) Put(rank int, x *T) {
	if x == nil {
		return
	}
	sh := &a.shards[rank]
	if len(sh.free) < arenaShardCap {
		sh.free = append(sh.free, x)
		return
	}
	a.ovMu.Lock()
	a.ov = append(a.ov, x)
	a.ovMu.Unlock()
}
